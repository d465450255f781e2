package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataflow"
)

func keyOf(n int) Key {
	var k Key
	// Spread across shards: shardFor uses k[0].
	k[0] = byte(n)
	k[1] = byte(n >> 8)
	k[2] = byte(n >> 16)
	return k
}

func TestCacheDoStoresAndHits(t *testing.T) {
	c := NewCache(64)
	var computes atomic.Int64
	fn := func() (any, error) {
		computes.Add(1)
		return "value", nil
	}
	v, cached, err := c.Do(keyOf(1), fn)
	if err != nil || cached || v != "value" {
		t.Fatalf("first Do = (%v, %v, %v)", v, cached, err)
	}
	v, cached, err = c.Do(keyOf(1), fn)
	if err != nil || !cached || v != "value" {
		t.Fatalf("second Do = (%v, %v, %v); want cached", v, cached, err)
	}
	if computes.Load() != 1 {
		t.Errorf("computed %d times; want 1", computes.Load())
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d; want 1/1", c.Hits(), c.Misses())
	}
	if v, ok := c.Get(keyOf(1)); !ok || v != "value" {
		t.Errorf("Get = (%v, %v)", v, ok)
	}
	if c.Hits() != 2 {
		t.Errorf("Get did not count a hit")
	}
}

func TestCacheSingleflight(t *testing.T) {
	c := NewCache(64)
	var computes atomic.Int64
	gate := make(chan struct{})
	const waiters = 8

	var wg sync.WaitGroup
	results := make([]bool, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, cached, err := c.Do(keyOf(7), func() (any, error) {
				computes.Add(1)
				<-gate // hold every concurrent caller on one computation
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("waiter %d: (%v, %v)", i, v, err)
			}
			results[i] = cached
		}(i)
	}
	// Let the goroutines pile onto the in-flight call, then open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for c.Coalesced() < waiters-1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	if computes.Load() != 1 {
		t.Errorf("computed %d times under contention; want 1", computes.Load())
	}
	for i, cached := range results {
		if cached {
			t.Errorf("waiter %d reported cached=true; joiners must report false", i)
		}
	}
	if c.Coalesced() != waiters-1 || c.Misses() != 1 {
		t.Errorf("coalesced=%d misses=%d; want %d/1", c.Coalesced(), c.Misses(), waiters-1)
	}
}

func TestCacheErrorsNotStored(t *testing.T) {
	c := NewCache(64)
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) {
		calls++
		if calls == 1 {
			return nil, boom
		}
		return "ok", nil
	}
	if _, _, err := c.Do(keyOf(3), fn); !errors.Is(err, boom) {
		t.Fatalf("first Do err = %v; want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("error was cached: len=%d", c.Len())
	}
	v, cached, err := c.Do(keyOf(3), fn)
	if err != nil || cached || v != "ok" {
		t.Fatalf("retry after error = (%v, %v, %v)", v, cached, err)
	}
}

func TestCachePanicReleasesWaiters(t *testing.T) {
	c := NewCache(64)
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("panic did not propagate")
			}
		}()
		c.Do(keyOf(9), func() (any, error) { panic("kaboom") }) //nolint:errcheck
	}()
	// The in-flight marker must be gone: a fresh Do computes normally.
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, _, err := c.Do(keyOf(9), func() (any, error) { return "recovered", nil })
		if err != nil || v != "recovered" {
			t.Errorf("Do after panic = (%v, %v)", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Do after panic deadlocked on a stale in-flight entry")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Capacity 16 over 16 shards = one entry per shard; two distinct
	// keys forced into the same shard must evict the older one.
	c := NewCache(16)
	var same1, same2 Key
	same1[0], same2[0] = 5, 5 // same shard (shardFor uses k[0])
	same2[1] = 1              // distinct key
	fn := func(v string) func() (any, error) {
		return func() (any, error) { return v, nil }
	}
	c.Do(same1, fn("a")) //nolint:errcheck
	c.Do(same2, fn("b")) //nolint:errcheck
	if c.Evictions() != 1 {
		t.Errorf("evictions = %d; want 1 (per-shard capacity 1)", c.Evictions())
	}
	if _, ok := c.Get(same1); ok {
		t.Errorf("LRU entry survived eviction")
	}
	if v, ok := c.Get(same2); !ok || v != "b" {
		t.Errorf("most recent entry missing: (%v, %v)", v, ok)
	}
}

func TestCacheDisabledStillCoalesces(t *testing.T) {
	c := NewCache(0)
	var computes atomic.Int64
	fn := func() (any, error) {
		computes.Add(1)
		return 1, nil
	}
	c.Do(keyOf(2), fn) //nolint:errcheck
	c.Do(keyOf(2), fn) //nolint:errcheck
	if computes.Load() != 2 {
		t.Errorf("disabled cache computed %d times; want 2", computes.Load())
	}
	if c.Len() != 0 {
		t.Errorf("disabled cache stored %d entries", c.Len())
	}
}

func TestPoolBackpressureAndClose(t *testing.T) {
	p := NewPool(1, 1)
	gate := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(func() { close(started); <-gate }); err != nil {
		t.Fatalf("submit: %v", err)
	}
	<-started
	if err := p.Submit(func() {}); err != nil {
		t.Fatalf("queue slot: %v", err)
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrQueueFull) {
		t.Errorf("over-queue Submit = %v; want ErrQueueFull", err)
	}
	if p.Running() != 1 || p.QueueDepth() != 1 {
		t.Errorf("running=%d depth=%d; want 1/1", p.Running(), p.QueueDepth())
	}

	// Close drains: it must block while a job is still running, then
	// return once the gate opens and the queue empties.
	done := make(chan struct{})
	go func() {
		p.Close()
		close(done)
	}()
	select {
	case <-done:
		t.Fatalf("Close returned with a job still blocked")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("Close never drained")
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("Submit after Close = %v; want ErrPoolClosed", err)
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("test_ops_total", "Ops.")
	c.Add(3)
	g := r.NewGauge("test_depth", "Depth.")
	g.Set(-2)
	h := r.NewHistogram("test_latency_seconds", "Latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := r.NewCounterVec("test_responses_total", "Responses.", "code")
	v.With("500").Inc()
	v.With("200").Add(2)
	r.NewGaugeFunc("test_live", "Live.", func() int64 { return 7 })

	out := r.Render()
	for _, want := range []string{
		"# HELP test_ops_total Ops.",
		"# TYPE test_ops_total counter",
		"test_ops_total 3",
		"# TYPE test_depth gauge",
		"test_depth -2",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="0.1"} 1`,
		`test_latency_seconds_bucket{le="1"} 2`,
		`test_latency_seconds_bucket{le="+Inf"} 3`,
		"test_latency_seconds_sum 5.55",
		"test_latency_seconds_count 3",
		`test_responses_total{code="200"} 2`,
		`test_responses_total{code="500"} 1`,
		"test_live 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	// Label children render sorted, so scrapes are deterministic.
	if strings.Index(out, `code="200"`) > strings.Index(out, `code="500"`) {
		t.Errorf("counter vec labels not sorted:\n%s", out)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bucket %d = %v; want %v", i, got[i], want[i])
		}
	}
}

// TestCanonicalKeyProperties pins the key semantics documented in
// canonical.go: spelling-insensitive for the dataflow, sensitive to
// every model-relevant field, insensitive to presentation-only names.
func TestCanonicalKeyProperties(t *testing.T) {
	base := AnalyzeRequest{
		Layer:    LayerSpec{Name: "l", K: 64, C: 32, Y: 28, X: 28, R: 3, S: 3},
		Dataflow: DataflowSpec{Name: "KC-P"},
		HW:       HWSpec{Preset: "Accel256"},
	}
	keyFor := func(req AnalyzeRequest) Key {
		r, err := resolveRequest(req)
		if err != nil {
			t.Fatalf("resolve: %v", err)
		}
		return canonicalKey(r, dataflow.Augment(r.df, r.layer))
	}
	k0 := keyFor(base)

	whitespace := base
	whitespace.Dataflow = DataflowSpec{Name: "KC-P", DSL: "  " + strings.ReplaceAll(dfSource(t, "KC-P"), ";", " ;\n")}
	if keyFor(whitespace) != k0 {
		t.Errorf("whitespace spelling changed the key")
	}

	diffLayer := base
	diffLayer.Layer.K = 128
	if keyFor(diffLayer) == k0 {
		t.Errorf("layer change did not change the key")
	}

	diffHW := base
	diffHW.HW.NumPEs = 128
	if keyFor(diffHW) == k0 {
		t.Errorf("hardware change did not change the key")
	}

	diffDF := base
	diffDF.Dataflow = DataflowSpec{Name: "YX-P"}
	if keyFor(diffDF) == k0 {
		t.Errorf("dataflow change did not change the key")
	}
}

func dfSource(t *testing.T, name string) string {
	t.Helper()
	r, err := resolveRequest(AnalyzeRequest{
		Layer:    LayerSpec{Name: "l", K: 8, C: 8, Y: 8, X: 8, R: 3, S: 3},
		Dataflow: DataflowSpec{Name: name},
		HW:       HWSpec{Preset: "Accel256"},
	})
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	return r.df.String()
}

func TestKeyString(t *testing.T) {
	k := keyOf(0xAB)
	s := k.String()
	if len(s) != 64 || !strings.HasPrefix(s, fmt.Sprintf("%02x", k[0])) {
		t.Errorf("Key.String() = %q", s)
	}
}

// TestAnalyzeCachedAllocs pins the cache-hit path BenchmarkAnalyzeCached
// measures (resolve, augment, key, lookup, response copy): interned
// dataflows and models and the stack-built binary key keep it to a
// handful of allocations, where re-parsing and fmt keys cost hundreds.
func TestAnalyzeCachedAllocs(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ctx := context.Background()
	if _, err := s.analyzeOne(ctx, benchReq(false)); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(200, func() {
		resp, err := s.analyzeOne(ctx, benchReq(false))
		if err != nil || !resp.Cached {
			t.Fatalf("want a cache hit, got %+v, %v", resp, err)
		}
	})
	if n > 8 {
		t.Errorf("cache hit allocates %v times, want at most 8", n)
	}
}
