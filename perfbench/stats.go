package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported tail
// percentile for it to be resolvable rather than one outlier's value.
const minTail = 10

// percentile returns the nearest-rank q-th percentile (0 < q <= 100) of
// sorted samples: the smallest sample with at least q% of the samples at
// or below it.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of percentile q among n samples. The
// small slack keeps a q computed as 100*k/n from rounding up past k.
func rank(n int, q float64) int {
	r := int(math.Ceil(q/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailPercentile picks the percentile reported for a requested tail:
// want itself when at least minTail samples lie beyond it, otherwise the
// highest percentile that still leaves minTail samples beyond it (never
// below the median).
func tailPercentile(n int, want float64) float64 {
	if n <= 0 {
		return 50
	}
	q := 100 * float64(n-minTail) / float64(n)
	if q > want {
		q = want
	}
	if q < 50 {
		q = 50
	}
	return q
}

// beyond counts the samples strictly after percentile q's rank.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// sum totals the samples.
func sum(d []time.Duration) time.Duration {
	var t time.Duration
	for _, v := range d {
		t += v
	}
	return t
}

// medianDuration is the nearest-rank median.
func medianDuration(d []time.Duration) time.Duration {
	return percentile(sortedCopy(d), 50)
}

// interval is a closed-open time span [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns the length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo < lo {
			iv.lo = lo
		}
		if iv.hi > hi {
			iv.hi = hi
		}
		if iv.hi > iv.lo {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, end int64
	end = math.MinInt64
	for _, iv := range clipped {
		if iv.lo > end {
			total += iv.hi - iv.lo
			end = iv.hi
			continue
		}
		if iv.hi > end {
			total += iv.hi - end
			end = iv.hi
		}
	}
	return total
}

// selfTime is a span's own time: its duration minus the time its
// children cover (children overlapping each other count once).
func selfTime(lo, hi int64, children []interval) int64 {
	return (hi - lo) - covered(children, lo, hi)
}
