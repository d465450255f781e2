package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/obs"
)

// traceparentFor builds a canonical traceparent header for a trace ID
// and remote span ID, the way a coordinator's client would.
func traceparentFor(traceID string, spanID uint64) string {
	return "00-" + traceID + "-" + obs.FormatSpanID(spanID) + "-01"
}

// analyzeWithHeader posts one analyze request with the given extra
// headers and returns the response status.
func analyzeWithHeader(t *testing.T, url string, hdr map[string]string) int {
	t.Helper()
	req := AnalyzeRequest{
		Layer:    LayerSpec{Name: "seg-layer", K: 32, C: 16, Y: 16, X: 16, R: 3, S: 3},
		Dataflow: DataflowSpec{Name: "KC-P"},
		HW:       HWSpec{Preset: "Accel256"},
	}
	hreq, _ := http.NewRequest(http.MethodPost, url+"/v1/analyze",
		strings.NewReader(marshal(t, req)))
	hreq.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatalf("POST /v1/analyze: %v", err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	return resp.StatusCode
}

// TestTracedRequestBuffersSegments is the node half of the distributed
// tracing acceptance check: a request arriving with a traceparent
// header must buffer its span tree in the segment store, retrievable
// by trace ID with the node's root span parented under the remote
// caller's span ID.
func TestTracedRequestBuffersSegments(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, NodeName: "test-node"})
	traceID := obs.NewTraceID()
	const remoteSpan = uint64(0xabcdef12)

	if code := analyzeWithHeader(t, ts.URL, map[string]string{
		"traceparent": traceparentFor(traceID, remoteSpan),
	}); code != http.StatusOK {
		t.Fatalf("traced analyze: status %d", code)
	}

	seg := fetchSegments(t, ts.URL, traceID)
	if seg.TraceID != traceID || seg.Node != "test-node" {
		t.Errorf("segments identity = %q/%q, want %q/test-node", seg.TraceID, seg.Node, traceID)
	}
	if len(seg.Spans) == 0 {
		t.Fatal("no spans buffered for traced request")
	}
	var root *obs.SpanJSON
	names := map[string]int{}
	for i, s := range seg.Spans {
		names[s.Name]++
		if s.TraceID != traceID {
			t.Errorf("span %q carries trace %q, want %q", s.Name, s.TraceID, traceID)
		}
		if s.Name == "http.request" {
			root = &seg.Spans[i]
		}
	}
	for _, want := range []string{"http.request", "serve.queue", "serve.compute"} {
		if names[want] == 0 {
			t.Errorf("segment missing %q span; got %v", want, names)
		}
	}
	if root == nil {
		t.Fatal("no http.request root span in segment")
	}
	if root.RemoteParent != obs.FormatSpanID(remoteSpan) {
		t.Errorf("root remote parent = %q, want %q", root.RemoteParent, obs.FormatSpanID(remoteSpan))
	}

	// The same request again is a result-cache hit: every stage it
	// passes through must be a child span of the request root, inside
	// the root's window, and the compute path must be absent.
	hitTrace := obs.NewTraceID()
	if code := analyzeWithHeader(t, ts.URL, map[string]string{
		"traceparent": traceparentFor(hitTrace, remoteSpan),
	}); code != http.StatusOK {
		t.Fatalf("traced hit: status %d", code)
	}
	hit := fetchSegments(t, ts.URL, hitTrace)
	root = nil
	for i, s := range hit.Spans {
		if s.Name == "http.request" {
			root = &hit.Spans[i]
		}
	}
	if root == nil {
		t.Fatal("no http.request root span in the hit's segment")
	}
	children := map[string]obs.SpanJSON{}
	for _, s := range hit.Spans {
		if s.Parent != root.ID {
			continue
		}
		children[s.Name] = s
		if s.StartUnixNs < root.StartUnixNs || s.EndUnixNs > root.EndUnixNs {
			t.Errorf("%s [%d, %d] lies outside the request [%d, %d]",
				s.Name, s.StartUnixNs, s.EndUnixNs, root.StartUnixNs, root.EndUnixNs)
		}
	}
	for _, st := range []stage{stageResolve, stageKey, stageCache, stageEncode} {
		if _, ok := children[stageSpans[st]]; !ok {
			t.Errorf("hit has no %s child span; children %v", stageSpans[st], children)
		}
	}
	if hit, _ := children["serve.cache"].Attrs["hit"].(bool); !hit {
		t.Errorf("serve.cache span attrs %v, want hit=true", children["serve.cache"].Attrs)
	}
	for _, st := range []stage{stageQueue, stageCompute} {
		if _, ok := children[stageSpans[st]]; ok {
			t.Errorf("a cache hit ran the %s stage", stageNames[st])
		}
	}
}

// fetchSegments pulls one trace's buffered segment from a node.
func fetchSegments(t *testing.T, url, traceID string) SegmentsResponse {
	t.Helper()
	resp, err := http.Get(url + "/debug/trace/segments?trace=" + traceID)
	if err != nil {
		t.Fatalf("GET segments: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("segments: status %d: %s", resp.StatusCode, body)
	}
	var seg SegmentsResponse
	if err := json.NewDecoder(resp.Body).Decode(&seg); err != nil {
		t.Fatalf("decode segments: %v", err)
	}
	return seg
}

// TestMalformedTraceparentIgnored is the sanitization regression test:
// hostile or malformed traceparent headers must not fail the request —
// it proceeds untraced and buffers nothing.
func TestMalformedTraceparentIgnored(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for _, v := range []string{
		"not-a-traceparent",
		"00-" + strings.Repeat("Z", 32) + "-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		strings.Repeat("0", 400),
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01 trailing",
		"99-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	} {
		if code := analyzeWithHeader(t, ts.URL, map[string]string{"traceparent": v}); code != http.StatusOK {
			t.Errorf("traceparent %q: status %d, want 200 (malformed headers must not fail requests)", v, code)
		}
	}
	if n := s.segments.Traces(); n != 0 {
		t.Errorf("segment store buffered %d traces from malformed headers, want 0", n)
	}
}

func TestSegmentsEndpointValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})

	resp, err := http.Post(ts.URL+"/debug/trace/segments", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST: status %d, want 405", resp.StatusCode)
	}

	for _, q := range []string{"", "?trace=xyz", "?trace=" + strings.Repeat("Z", 32)} {
		resp, err := http.Get(ts.URL + "/debug/trace/segments" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %q: status %d, want 400", q, resp.StatusCode)
		}
	}

	resp, err = http.Get(ts.URL + "/debug/trace/segments?trace=" + obs.NewTraceID())
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", resp.StatusCode)
	}
}

func TestSegmentStoreDisabled(t *testing.T) {
	// SegmentTraces < 0 turns the store off: traced requests still
	// succeed, and the endpoint answers 404.
	s, ts := newTestServer(t, Options{Workers: 1, SegmentTraces: -1})
	if s.segments != nil {
		t.Fatal("segment store built despite SegmentTraces < 0")
	}
	traceID := obs.NewTraceID()
	if code := analyzeWithHeader(t, ts.URL, map[string]string{
		"traceparent": traceparentFor(traceID, 7),
	}); code != http.StatusOK {
		t.Fatalf("traced analyze with store disabled: status %d", code)
	}
	resp, err := http.Get(ts.URL + "/debug/trace/segments?trace=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("disabled store: status %d, want 404", resp.StatusCode)
	}
}

// TestTracedRequestFeedsOpenCapture keeps the PR 3 capture window
// complete: a traced request's spans divert to the segment store but
// must still merge into an open /debug/trace capture.
func TestTracedRequestFeedsOpenCapture(t *testing.T) {
	s, _ := newTestServer(t, Options{Workers: 1})
	capRec := obs.NewRecorder()
	if !s.capture.CompareAndSwap(nil, capRec) {
		t.Fatal("capture slot busy")
	}
	defer s.capture.CompareAndSwap(capRec, nil)

	ts2 := s.Handler()
	req, _ := http.NewRequest(http.MethodGet, "/v1/models", nil)
	req.Header.Set("traceparent", traceparentFor(obs.NewTraceID(), 99))
	w := newRecorderResponse()
	ts2.ServeHTTP(w, req)
	if w.status != http.StatusOK {
		t.Fatalf("models: status %d", w.status)
	}
	if capRec.Len() == 0 {
		t.Error("open capture window saw none of the traced request's spans")
	}
}

// recorderResponse is a minimal ResponseWriter for in-process calls.
type recorderResponse struct {
	h      http.Header
	status int
}

func newRecorderResponse() *recorderResponse {
	return &recorderResponse{h: http.Header{}, status: http.StatusOK}
}

func (r *recorderResponse) Header() http.Header         { return r.h }
func (r *recorderResponse) Write(b []byte) (int, error) { return len(b), nil }
func (r *recorderResponse) WriteHeader(code int)        { r.status = code }

func TestStatusEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 3, QueueDepth: 7, NodeName: "status-node"})

	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status: %d", resp.StatusCode)
	}
	var st StatusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	if st.Node != "status-node" || st.Workers != 3 || st.QueueCap != 7 {
		t.Errorf("status identity = %+v, want node status-node, 3 workers, queue 7", st)
	}
	if st.Version == "" || st.GoVersion == "" || st.Commit == "" {
		t.Errorf("status build info incomplete: %+v", st)
	}
	if st.UptimeSeconds < 0 {
		t.Errorf("negative uptime %f", st.UptimeSeconds)
	}
	if !st.Segments.Enabled {
		t.Error("segment store reported disabled on a default server")
	}

	respPost, err := http.Post(ts.URL+"/v1/status", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	respPost.Body.Close()
	if respPost.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status: %d, want 405", respPost.StatusCode)
	}
}

func TestBuildInfoAndDropMetrics(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, NodeName: "metrics-node"})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `maestro_build_info{`) ||
		!strings.Contains(text, `node="metrics-node"`) {
		t.Errorf("/metrics missing maestro_build_info with node label:\n%.400s", text)
	}
	if !strings.Contains(text, "maestro_trace_spans_dropped_total 0") {
		t.Errorf("/metrics missing zero span-drop counter")
	}

	// Overflow one trace's segment and watch the counter move.
	st := s.segments
	spans := make([]obs.SpanRecord, st.MaxSpans()+3)
	for i := range spans {
		spans[i] = obs.SpanRecord{ID: uint64(i + 1), Name: fmt.Sprintf("s%d", i)}
	}
	st.Add(obs.NewTraceID(), spans, 0)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "maestro_trace_spans_dropped_total 3") {
		t.Errorf("span-drop counter did not surface store drops:\n%s",
			grepLine(string(body), "maestro_trace_spans_dropped_total"))
	}
}

func grepLine(text, substr string) string {
	for _, l := range strings.Split(text, "\n") {
		if strings.Contains(l, substr) {
			return l
		}
	}
	return "(absent)"
}
