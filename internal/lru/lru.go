// Package lru is the one memo layer of the system: a sharded LRU with
// a singleflight layer, keyed by the 32-byte canonical digests of
// internal/canon. Concurrent requests for the same key compute once and
// share the result; successful results stay resident until evicted.
package lru

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"
)

// Shards is the number of independently locked shards. Keys are
// SHA-256 digests, so their first byte spreads them evenly.
const Shards = 16

// ErrPanicked is the error waiters of a computation receive when the
// computing caller panicked; the panic itself propagates to that caller.
var ErrPanicked = errors.New("lru: computation panicked")

// Outcome says how a value was served.
type Outcome uint8

const (
	// Miss: this caller ran the computation.
	Miss Outcome = iota
	// Hit: the value came from the LRU.
	Hit
	// Joined: the caller shared another caller's in-flight computation.
	Joined
)

// Cache is a sharded LRU of immutable values with a singleflight layer.
// Values are shared between callers, so callers copy before mutating.
type Cache[K ~[32]byte, V any] struct {
	shards [Shards]shard[K, V]

	hits      atomic.Int64 // served from the LRU
	misses    atomic.Int64 // computed fresh
	coalesced atomic.Int64 // joined an in-flight computation
	evictions atomic.Int64
}

type shard[K ~[32]byte, V any] struct {
	mu       sync.Mutex
	capacity int
	order    list.List // front = most recently used
	items    map[K]*list.Element
	inflight map[K]*call[V]
}

type entry[K ~[32]byte, V any] struct {
	key K
	val V
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a cache holding up to capacity entries across its shards.
// A non-positive capacity disables storage: every request computes, and
// singleflight still coalesces concurrent duplicates.
func New[K ~[32]byte, V any](capacity int) *Cache[K, V] {
	c := &Cache[K, V]{}
	per := capacity / Shards
	if capacity > 0 && per == 0 {
		per = 1
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = per
		s.items = map[K]*list.Element{}
		s.inflight = map[K]*call[V]{}
	}
	return c
}

func (c *Cache[K, V]) shardFor(k K) *shard[K, V] { return &c.shards[k[0]%Shards] }

// Get returns the stored value for k, counting a hit when present. A
// miss is not counted here — Do owns miss accounting — so callers can
// probe for a fast path without skewing the ratio.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Do returns the value for k, computing it with fn at most once across
// concurrent callers. The second return reports an LRU hit; a caller
// that joined an in-flight computation reports false, like the caller
// that ran fn. Errors are not stored.
func (c *Cache[K, V]) Do(k K, fn func() (V, error)) (V, bool, error) {
	f := c.Begin(k, fn)
	v, err := f.Wait()
	return v, f.Outcome == Hit, err
}

// Flight is the state of one Begin call. A Hit or Miss flight is
// complete; a Joined flight completes when the computing caller
// finishes.
type Flight[V any] struct {
	Outcome Outcome
	val     V
	err     error
	call    *call[V]
}

// Wait blocks until the flight completes and returns its value.
func (f Flight[V]) Wait() (V, error) {
	if f.call != nil {
		<-f.call.done
		return f.call.val, f.call.err
	}
	return f.val, f.err
}

// Begin is Do up to its one blocking point: it serves a hit, runs fn
// on a miss, and on a joined call returns without waiting, so callers
// that time the wait (as the profile cache traces it) call Wait
// themselves. fn runs only on a Miss.
func (c *Cache[K, V]) Begin(k K, fn func() (V, error)) Flight[V] {
	s := c.shardFor(k)
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.order.MoveToFront(el)
		s.mu.Unlock()
		c.hits.Add(1)
		return Flight[V]{Outcome: Hit, val: el.Value.(*entry[K, V]).val}
	}
	if cl, ok := s.inflight[k]; ok {
		s.mu.Unlock()
		c.coalesced.Add(1)
		return Flight[V]{Outcome: Joined, call: cl}
	}
	cl := &call[V]{done: make(chan struct{})}
	s.inflight[k] = cl
	s.mu.Unlock()
	c.misses.Add(1)

	finished := false
	defer func() {
		if !finished { // fn panicked: release waiters before unwinding
			cl.err = ErrPanicked
			c.finish(s, k, cl, false)
		}
	}()
	cl.val, cl.err = fn()
	finished = true
	c.finish(s, k, cl, cl.err == nil)
	return Flight[V]{Outcome: Miss, val: cl.val, err: cl.err}
}

// finish publishes a completed computation: removes the in-flight
// marker, stores a successful result in the LRU, and wakes waiters.
func (c *Cache[K, V]) finish(s *shard[K, V], k K, cl *call[V], store bool) {
	s.mu.Lock()
	delete(s.inflight, k)
	if store && s.capacity > 0 {
		s.items[k] = s.order.PushFront(&entry[K, V]{key: k, val: cl.val})
		for s.order.Len() > s.capacity {
			last := s.order.Back()
			s.order.Remove(last)
			delete(s.items, last.Value.(*entry[K, V]).key)
			c.evictions.Add(1)
		}
	}
	s.mu.Unlock()
	close(cl.done)
}

// Len returns the number of stored entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Hits, Misses, Coalesced and Evictions expose the cache counters.
func (c *Cache[K, V]) Hits() int64      { return c.hits.Load() }
func (c *Cache[K, V]) Misses() int64    { return c.misses.Load() }
func (c *Cache[K, V]) Coalesced() int64 { return c.coalesced.Load() }
func (c *Cache[K, V]) Evictions() int64 { return c.evictions.Load() }
