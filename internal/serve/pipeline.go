package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"time"

	"repro/internal/obs"
)

// The request pipeline: every POST endpoint decodes through post and
// runs its computation through pipeline, so all of them share one
// cache probe, one admission check, one queue step and one delivery
// copy. The batch endpoint's grouped jobs use the same queue step.

// Body caps: a POST endpoint decodes at most maxBody bytes, the batch
// endpoint at most maxBatchBody.
const (
	maxBody      = 1 << 20
	maxBatchBody = 16 << 20
)

// postRequest is a POST body: every one carries its own deadline.
type postRequest interface{ timeoutMs() int }

func (r *AnalyzeRequest) timeoutMs() int { return r.TimeoutMs }
func (r *BatchRequest) timeoutMs() int   { return r.TimeoutMs }
func (r *DSERequest) timeoutMs() int     { return r.TimeoutMs }
func (r *FusionRequest) timeoutMs() int  { return r.TimeoutMs }

// post is the preamble of every POST endpoint: method check, request
// counter, strict body decode under maxBytes into req, and a context
// bounded by the request's timeout (or the server default). When ok is
// false the response has been written. Otherwise the handler defers done,
// which cancels the context and records the end-to-end latency.
func (s *Server) post(w http.ResponseWriter, r *http.Request, endpoint string, maxBytes int64, req postRequest) (ctx context.Context, done func(), ok bool) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil, nil, false
	}
	s.requests.With(endpoint).Inc()
	start := time.Now()
	observe := func() { s.latency.Observe(time.Since(start).Seconds()) }
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		s.writeError(w, r, badRequestf("decoding body: %v", err))
		observe()
		return nil, nil, false
	}
	timeout := s.opts.DefaultTimeout
	if ms := req.timeoutMs(); ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	return ctx, func() { cancel(); observe() }, true
}

// response is a result-cache value type. Stored values are shared, so
// every delivery is a copy with its own Cached flag.
type response[T any] interface {
	*T
	setCached(bool)
}

func (r *AnalyzeResponse) setCached(c bool) { r.Cached = c }
func (r *DSEResponse) setCached(c bool)     { r.Cached = c }
func (r *FusionResponse) setCached(c bool)  { r.Cached = c }

// deliver returns the caller's own copy of v, marked cached.
func deliver[T any, P response[T]](v P, cached bool) P {
	c := *v
	P(&c).setCached(cached)
	return &c
}

// probe looks key up in the result cache under the cache stage. The
// stage span is per call: the batch handler probes on many goroutines
// under one shared request span, and a span does not take concurrent
// Events.
func probe[T any, P response[T]](s *Server, ctx context.Context, key Key) (P, bool) {
	_, ct := s.startStage(ctx, stageCache)
	v, ok := s.cache.Get(key)
	ct.span.SetAttr(obs.Bool("hit", ok))
	if ok {
		ct.span.Event("result_cache.hit")
	}
	ct.end()
	if !ok {
		return nil, false
	}
	return deliver(v.(P), true), true
}

// enqueue is the queue step: admission, one pool slot for job, and the
// wait for its result. A request whose remaining deadline cannot cover
// the expected queue wait plus the observed median compute is shed
// before it takes a slot it can never use. The queue stage times
// submit-to-dequeue, and a rejected submit counts toward it too:
// saturation is exactly when the queue histogram matters. A job whose
// caller left while it was queued does not run.
func enqueue[R any](s *Server, ctx context.Context, job func() R) (R, error) {
	var zero R
	if dl, ok := ctx.Deadline(); ok {
		if err := s.shedCheck(time.Until(dl)); err != nil {
			return zero, err
		}
	}
	ch := make(chan R, 1)
	_, qt := s.startStage(ctx, stageQueue)
	if err := s.pool.Submit(func() {
		qt.end()
		if ctx.Err() == nil {
			ch <- job()
		}
	}); err != nil {
		qt.span.SetAttr(obs.String("error", err.Error()))
		qt.end()
		return zero, err
	}
	select {
	case <-ctx.Done():
		return zero, ctx.Err()
	case r := <-ch:
		return r, nil
	}
}

// outcome is what a pipeline job hands back to its handler.
type outcome[P any] struct {
	v      P
	cached bool
	err    error
}

// pipeline runs one request: a cache hit is answered from the probe
// without a queue slot; a miss goes through enqueue, and its job
// computes under the cache's singleflight, so identical in-flight
// requests compute once. noCache computes directly: it neither reads,
// writes nor coalesces with the cache.
func pipeline[T any, P response[T]](s *Server, ctx context.Context, key Key, noCache bool, compute func(context.Context) (P, error)) (P, error) {
	if !noCache {
		if v, ok := probe[T, P](s, ctx, key); ok {
			return v, nil
		}
	}
	o, err := enqueue(s, ctx, func() outcome[P] {
		if noCache {
			v, err := compute(ctx)
			return outcome[P]{v: v, err: err}
		}
		cctx, cspan := obs.Start(ctx, "serve.cache")
		v, hit, err := s.cache.Do(key, func() (any, error) { return compute(cctx) })
		cspan.SetAttr(obs.Bool("hit", hit))
		cspan.End()
		if err != nil {
			return outcome[P]{err: err}
		}
		return outcome[P]{v: v.(P), cached: hit}
	})
	if err != nil {
		return nil, err
	}
	if o.err != nil {
		return nil, o.err
	}
	return deliver(o.v, o.cached), nil
}
