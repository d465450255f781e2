package main

import (
	"hash/fnv"
	"math/rand"
)

// newRand returns the deterministic random stream named stream of one
// benchmark seed. Every generated input draws from its own stream, so
// adding a stream never shifts the values of another.
func newRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// permutation is a seeded order of 0..n-1.
func permutation(seed int64, stream string, n int) []int {
	return newRand(seed, stream).Perm(n)
}

// convShape is an inline CONV2D layer shape (input coordinates, as in
// the DSL and the serve LayerSpec).
type convShape struct{ K, C, Y, X, R int }

// missShapes generates n distinct seeded CONV2D shapes (n at most the
// 16384 shapes of the band) whose sizes stay in one narrow band, so each
// costs about the same cold profile walk.
func missShapes(seed int64, n int) []convShape {
	r := newRand(seed, "serve.miss")
	seen := make(map[convShape]bool, n)
	out := make([]convShape, 0, n)
	for len(out) < n {
		y := 14 + r.Intn(16)
		s := convShape{
			K: 8 * (4 + r.Intn(32)),
			C: 8 * (4 + r.Intn(32)),
			Y: y, X: y,
			R: 3,
		}
		if seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	return out
}

// serveOp is one request of the serve client's closed loop.
type serveOp struct {
	kind uint8 // opHit, opMiss or opBatch
	keys []int // hot-set indices: one for a hit, batchSize for a batch
}

const (
	opHit uint8 = iota
	opMiss
	opBatch
)

// serveMix is the request mix: shares of misses and batches, the batch
// size and the Zipf skew of the hot set.
type serveMix struct {
	missShare, batchShare float64
	batchSize             int
	zipfS                 float64
}

// hotRank is the popularity order of a hot set of n keys: rank r is the
// r-th most requested key. It is the same for every seed, so runs on
// different seeds see the same popularity profile; the seed draws the
// request sequences from it.
func hotRank(n int) []int { return permutation(0, "serve.rank", n) }

// serveStream draws the client's seeded request sequence over a hot set
// of hot keys: Zipf-ranked hits and batch items, and miss markers the
// runner resolves to the next shape of the shared miss pool.
type serveStream struct {
	r    *rand.Rand
	z    *rand.Zipf
	rank []int
	mix  serveMix
}

func newServeStream(seed int64, hot int, mix serveMix) *serveStream {
	r := newRand(seed, "serve.client")
	return &serveStream{r: r, z: rand.NewZipf(r, mix.zipfS, 1, uint64(hot-1)), rank: hotRank(hot), mix: mix}
}

func (s *serveStream) draw() int { return s.rank[s.z.Uint64()] }

func (s *serveStream) next() serveOp {
	u := s.r.Float64()
	switch {
	case u < s.mix.missShare:
		return serveOp{kind: opMiss}
	case u < s.mix.missShare+s.mix.batchShare:
		keys := make([]int, s.mix.batchSize)
		for j := range keys {
			keys[j] = s.draw()
		}
		return serveOp{kind: opBatch, keys: keys}
	}
	return serveOp{kind: opHit, keys: []int{s.draw()}}
}
