package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// This file is the service's request-scoped observability: X-Request-ID
// generation/propagation, slog access logs, the tracing middleware that
// roots every request's span tree, and the GET /debug/trace capture
// endpoint that records a window of live traffic as Chrome trace JSON.

type requestIDKey struct{}

// RequestIDFrom returns the request ID the middleware stored in ctx
// (empty outside a request).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// requestID echoes a client-supplied X-Request-ID (sanitized) or
// generates a fresh one.
func requestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Request-ID")); id != "" {
		if len(id) > 64 {
			id = id[:64]
		}
		if !strings.ContainsAny(id, "\n\r\"\\") {
			return id
		}
	}
	var b [8]byte
	rand.Read(b[:]) //nolint:errcheck // never fails per crypto/rand docs
	return hex.EncodeToString(b[:])
}

// stage is one timed step of the request pipeline: each has a
// maestro_stage_seconds{stage=...} child and a serve.<stage> span, so a
// traced request's latency breaks down with no unlabelled step.
type stage uint8

const (
	stageResolve stage = iota // request to validated layer, dataflow, hardware
	stageKey                  // canonical result-cache key
	stageCache                // result-cache lookup
	stageQueue                // pool submit to dequeue
	stageCompute              // cost-model evaluation or sweep
	stageEncode               // response JSON encoding
	numStages
)

var stageNames = [numStages]string{"resolve", "key", "cache", "queue", "compute", "encode"}

var stageSpans = [numStages]string{
	"serve.resolve", "serve.key", "serve.cache", "serve.queue", "serve.compute", "serve.encode",
}

// stageTimer is one open stage; end it exactly once.
type stageTimer struct {
	span  *obs.Span
	h     *Histogram
	start time.Time
}

// startStage opens stage st under ctx's span. The returned context
// parents the spans opened inside the stage.
func (s *Server) startStage(ctx context.Context, st stage, attrs ...obs.Attr) (context.Context, stageTimer) {
	ctx, span := obs.Start(ctx, stageSpans[st], attrs...)
	return ctx, stageTimer{span: span, h: s.stages[st], start: time.Now()}
}

// end closes the stage's span, observes its duration and returns it.
func (t stageTimer) end() time.Duration {
	d := time.Since(t.start)
	t.span.End()
	t.h.Observe(d.Seconds())
	return d
}

// endpointOf maps a request path to its metrics label.
func endpointOf(path string) string {
	switch path {
	case "/v1/analyze":
		return "analyze"
	case "/v1/analyze/batch":
		return "batch"
	case "/v1/dse":
		return "dse"
	case "/v1/models":
		return "models"
	case "/v1/status":
		return "status"
	case "/healthz":
		return "healthz"
	case "/metrics":
		return "metrics"
	case "/debug/trace":
		return "debug_trace"
	case "/debug/trace/segments":
		return "trace_segments"
	}
	return "other"
}

// statusWriter records the response status for access logs and spans.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps the route mux with the request-scoped observability:
// it assigns the request ID, extracts the distributed trace context (a
// sanitized traceparent header, buffered into the segment store),
// attaches the live capture recorder (if a /debug/trace window is
// open), roots the span tree, and emits one structured access-log line
// per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := requestID(r)
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		capRec := s.capture.Load()
		// Trace-context propagation: a valid traceparent header parents
		// this request's spans under the remote caller's span and — when
		// the segment store is on — buffers them for the coordinator to
		// pull. Extract is strict; a malformed header is ignored (the
		// request proceeds untraced), mirroring X-Request-ID sanitizing.
		var segRec *obs.Recorder
		tc, traced := obs.Extract(r.Header)
		if traced {
			ctx = obs.ContextWithRemote(ctx, tc)
			if s.segments != nil {
				segRec = s.segments.NewRecorder(obs.WithLimit(s.segments.MaxSpans()))
				ctx = obs.WithRecorder(ctx, segRec)
			}
		}
		if segRec == nil && capRec != nil {
			ctx = obs.WithRecorder(ctx, capRec)
		}
		// Baggage: every span under this request — including ones
		// recorded inside DSE workers — carries the request ID.
		ctx = obs.ContextWithAttrs(ctx, obs.String("request_id", id))
		ctx, span := obs.Start(ctx, "http.request",
			obs.String("method", r.Method), obs.String("path", r.URL.Path))
		w.Header().Set("X-Request-ID", id)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r.WithContext(ctx))
		elapsed := time.Since(start)
		span.SetAttr(obs.Int("status", sw.status))
		span.End()
		if segRec != nil {
			spans := segRec.Snapshot()
			s.segments.Add(tc.TraceID, spans, segRec.Dropped())
			if capRec != nil {
				// A capture window stays complete even while segment
				// recording diverts the traced request's spans.
				capRec.Merge(spans)
			}
		}
		s.endpointSeconds.With(endpointOf(r.URL.Path)).Observe(elapsed.Seconds())
		lvl := slog.LevelInfo
		if r.URL.Path == "/healthz" || r.URL.Path == "/metrics" {
			lvl = slog.LevelDebug // scrape noise
		}
		s.log.LogAttrs(ctx, lvl, "http_request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Duration("dur", elapsed))
	})
}

// maxCaptureSeconds caps one /debug/trace window.
const maxCaptureSeconds = 60

// DebugTraceHandler returns the trace-capture endpoint as a standalone
// handler, for mounting on a private debug listener (maestro-serve puts
// it on the -pprof address). The endpoint captures traffic from the
// main API regardless of which listener serves it; Options.DebugTrace
// additionally exposes it on the API handler itself.
func (s *Server) DebugTraceHandler() http.Handler {
	return http.HandlerFunc(s.handleDebugTrace)
}

// handleDebugTrace records spans from every request for ?sec=N seconds
// (default 1, cap 60) and responds with the Chrome trace_event JSON,
// loadable in chrome://tracing or Perfetto. One capture runs at a time;
// a second concurrent capture is answered 409.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.requests.With("debug_trace").Inc()
	sec := 1.0
	if q := r.URL.Query().Get("sec"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || v <= 0 {
			s.writeError(w, r, badRequestf("sec must be a positive number, got %q", q))
			return
		}
		sec = v
	}
	if sec > maxCaptureSeconds {
		sec = maxCaptureSeconds
	}
	rec := obs.NewRecorder()
	if !s.capture.CompareAndSwap(nil, rec) {
		s.writeError(w, r, &httpError{status: http.StatusConflict,
			msg: "a trace capture is already in progress"})
		return
	}
	select {
	case <-r.Context().Done():
	case <-time.After(time.Duration(sec * float64(time.Second))):
	}
	s.capture.CompareAndSwap(rec, nil)
	s.responses.With(strconv.Itoa(http.StatusOK)).Inc()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="maestro-trace.json"`)
	rec.WriteTrace(w) //nolint:errcheck // client went away
}

// SegmentsResponse is the body of GET /debug/trace/segments: one node's
// buffered span segments for a single distributed trace.
type SegmentsResponse struct {
	TraceID string         `json:"trace_id"`
	Node    string         `json:"node"`
	Dropped int64          `json:"dropped"`
	Spans   []obs.SpanJSON `json:"spans"`
}

// SegmentsHandler returns the segment-pull endpoint as a standalone
// handler for a private debug listener. The endpoint is also mounted on
// the API handler: unlike /debug/trace (which captures arbitrary
// traffic and so lives behind -pprof), fetching segments requires the
// exact 128-bit trace ID, which only the coordinator that minted it
// knows — the URL is its own capability.
func (s *Server) SegmentsHandler() http.Handler {
	return http.HandlerFunc(s.handleTraceSegments)
}

// handleTraceSegments serves one trace's buffered spans by ID. The
// trace parameter is validated as strictly as an incoming traceparent:
// exactly 32 lowercase hex characters.
func (s *Server) handleTraceSegments(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.requests.With("trace_segments").Inc()
	if s.segments == nil {
		s.writeError(w, r, &httpError{status: http.StatusNotFound,
			msg: "trace segment store is disabled"})
		return
	}
	id := r.URL.Query().Get("trace")
	if !obs.ValidTraceID(id) {
		s.writeError(w, r, badRequestf("trace must be 32 lowercase hex characters, got %q", id))
		return
	}
	spans, dropped, ok := s.segments.Get(id)
	if !ok {
		s.writeError(w, r, &httpError{status: http.StatusNotFound,
			msg: "no segments buffered for trace " + id})
		return
	}
	s.writeJSON(w, r, http.StatusOK, SegmentsResponse{
		TraceID: id,
		Node:    s.opts.NodeName,
		Dropped: dropped,
		Spans:   obs.SpansToJSON(spans),
	})
}
