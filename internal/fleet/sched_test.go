package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// TestSweepFailsFastOnRequestError pins the scheduler's 4xx rule: a
// request every node refuses the same way (here an unknown template,
// a 400) fails the sweep on the first refusal instead of walking each
// shard's failover budget.
func TestSweepFailsFastOnRequestError(t *testing.T) {
	hosts, _, hc := newNodes(t, 2)
	f, err := New(fastFleet(hosts, hc))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := fleetReq()
	req.Template = "NoSuchTemplate"
	_, err = f.Sweep(context.Background(), req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Fatalf("sweep err = %v, want a 400 *client.APIError", err)
	}
	if st := f.Stats(); st.Redispatched != 0 {
		t.Fatalf("a request fault was re-dispatched %d times, want 0", st.Redispatched)
	}
}

// peakTransport counts concurrent requests through next, from dial to
// response-body close, and records the peak.
type peakTransport struct {
	next      http.RoundTripper
	mu        sync.Mutex
	cur, peak int
}

func (pt *peakTransport) add(d int) {
	pt.mu.Lock()
	pt.cur += d
	pt.peak = max(pt.peak, pt.cur)
	pt.mu.Unlock()
}

func (pt *peakTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	pt.add(1)
	resp, err := pt.next.RoundTrip(req)
	if err != nil {
		pt.add(-1)
		return nil, err
	}
	resp.Body = &doneBody{ReadCloser: resp.Body, done: func() { pt.add(-1) }}
	return resp, nil
}

type doneBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *doneBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// TestSweepFusionInflightCap checks fusion shards queue for the same
// per-node slots as DSE shards: four shards on one node with
// InflightPerNode 1 never overlap.
func TestSweepFusionInflightCap(t *testing.T) {
	hosts, _, hc := newNodes(t, 1)
	pt := &peakTransport{next: hc.Transport}
	opts := fastFleet(hosts, &http.Client{Transport: pt})
	opts.ShardsPerNode = 4
	opts.InflightPerNode = 1
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := fusionFleetReq()
	res, err := f.SweepFusion(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Shards != 4 {
		t.Fatalf("sweep used %d shards, want 4", res.Shards)
	}
	if !reflect.DeepEqual(res.Points, fusionTruth(t, req)) {
		t.Fatal("capped sweep diverged from local truth")
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.peak > 1 {
		t.Fatalf("%d requests in flight on one node, want <= InflightPerNode 1", pt.peak)
	}
}

// TestInflightCapAcrossSweeps checks InflightPerNode is a per-node cap,
// not a per-sweep one: three concurrent sweeps against one node with
// InflightPerNode 1 still never overlap. Injected service latency keeps
// every request open long enough that per-sweep slots would overlap.
func TestInflightCapAcrossSweeps(t *testing.T) {
	hosts, servers, hc := newNodes(t, 1)
	servers[hosts[0]].SetChaos(serve.Chaos{Latency: 10 * time.Millisecond})
	pt := &peakTransport{next: hc.Transport}
	opts := fastFleet(hosts, &http.Client{Transport: pt})
	opts.InflightPerNode = 1
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	req := fusionFleetReq()
	want := fusionTruth(t, req)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := f.SweepFusion(context.Background(), req)
			if err == nil && !reflect.DeepEqual(res.Points, want) {
				err = errors.New("capped sweep diverged from local truth")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	pt.mu.Lock()
	defer pt.mu.Unlock()
	if pt.peak != 1 {
		t.Fatalf("%d requests in flight on one node across 3 sweeps, want InflightPerNode 1", pt.peak)
	}
}

// TestSweepFusionStealsStraggler is TestSweepStealsStraggler for fusion
// sweeps: the watchdog re-issues the slow node's shards on the fast one,
// the losing duplicates are discarded, and every shard merges once.
func TestSweepFusionStealsStraggler(t *testing.T) {
	hosts, servers, hc := newNodes(t, 2)
	opts := fastFleet(hosts, hc)
	opts.StragglerFactor = 3
	opts.StragglerMin = 25 * time.Millisecond
	opts.WatchTick = 2 * time.Millisecond
	var mu sync.Mutex
	merged := map[int]int{}
	opts.OnFusionShard = func(sr FusionShardResult) {
		mu.Lock()
		merged[sr.Shard]++
		mu.Unlock()
	}
	f, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Shard i prefers hosts[i%2], so the slow node owns the odd shards.
	servers[hosts[1]].SetChaos(serve.Chaos{Latency: 2 * time.Second})

	req := fusionFleetReq()
	start := time.Now()
	res, err := f.SweepFusion(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 1500*time.Millisecond {
		t.Fatalf("sweep took %v; stealing should beat the 2s straggler", d)
	}
	if !reflect.DeepEqual(res.Points, fusionTruth(t, req)) {
		t.Fatalf("post-steal points diverge from local truth: %+v", res.Points)
	}
	st := f.Stats()
	if st.Stolen < 1 || res.Stolen != st.Stolen {
		t.Fatalf("Stolen: result %d, fleet %d; want >= 1 and equal", res.Stolen, st.Stolen)
	}
	if res.Discarded < 1 || res.Discarded > res.Stolen || st.Discarded != res.Discarded {
		t.Fatalf("Discarded: result %d, fleet %d; want between 1 and Stolen %d", res.Discarded, st.Discarded, res.Stolen)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(merged) != res.Shards {
		t.Fatalf("%d of %d shards merged", len(merged), res.Shards)
	}
	for shard, n := range merged {
		if n != 1 {
			t.Fatalf("shard %d merged %d times", shard, n)
		}
	}
}
