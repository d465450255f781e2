package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// TestCacheHitsBypassQueue: with the only worker blocked and the only
// queue slot taken, a repeat of a warm request is still answered from
// the result cache on every endpoint, because the cache probe runs
// before the queue step.
func TestCacheHitsBypassQueue(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	dseReq := DSERequest{
		Layer:    LayerSpec{Name: "tiny", K: 32, C: 16, Y: 18, X: 18, R: 3, S: 3},
		Template: "KC-P",
		P1:       []int{8},
		P2:       []int{4},
		PEs:      []int{64},
		BWs:      []float64{16},
		L1Grid:   []int64{1 << 12},
		L2Grid:   []int64{1 << 20},
	}
	if code, data := post(t, ts.URL+"/v1/dse", marshal(t, dseReq)); code != http.StatusOK {
		t.Fatalf("warm dse: status %d: %s", code, data)
	}
	if code, _, data := postFusion(t, ts.URL, fusionReq()); code != http.StatusOK {
		t.Fatalf("warm fusion: status %d: %s", code, data)
	}
	if code, _, data := analyze(t, ts.URL, zooReq()); code != http.StatusOK {
		t.Fatalf("warm analyze: status %d: %s", code, data)
	}

	release := blockWorkers(t, s, 1)
	defer release()
	if err := s.pool.Submit(func() {}); err != nil {
		t.Fatalf("fill queue: %v", err)
	}

	code, data := post(t, ts.URL+"/v1/dse", marshal(t, dseReq))
	var dseResp DSEResponse
	if code != http.StatusOK || json.Unmarshal(data, &dseResp) != nil || !dseResp.Cached {
		t.Errorf("repeat dse under a full queue: status %d: %s; want 200 cached", code, data)
	}
	code, fusionResp, data := postFusion(t, ts.URL, fusionReq())
	if code != http.StatusOK || !fusionResp.Cached {
		t.Errorf("repeat fusion under a full queue: status %d: %s; want 200 cached", code, data)
	}
	code, analyzeResp, data := analyze(t, ts.URL, zooReq())
	if code != http.StatusOK || !analyzeResp.Cached {
		t.Errorf("repeat analyze under a full queue: status %d: %s; want 200 cached", code, data)
	}

	// A request that needs the queue is still rejected.
	uncached := dseReq
	uncached.NoCache = true
	if code, data := post(t, ts.URL+"/v1/dse", marshal(t, uncached)); code != http.StatusTooManyRequests {
		t.Errorf("no_cache dse under a full queue: status %d: %s; want 429", code, data)
	}
}

// TestAnalyzeOverflowRejected: a layer whose MAC count overflows int64
// is the caller's fault (400), not a 200 carrying a wrapped negative
// MAC count.
func TestAnalyzeOverflowRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	req := zooReq()
	req.Layer = LayerSpec{Name: "huge", N: 4096, K: 4096, C: 4096, Y: 4096, X: 4096, R: 3, S: 3}
	code, data := post(t, ts.URL+"/v1/analyze", marshal(t, req))
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d; want 400: %s", code, data)
	}
	if !strings.Contains(string(data), "overflows int64") {
		t.Errorf("error body does not name the overflow: %s", data)
	}
}
