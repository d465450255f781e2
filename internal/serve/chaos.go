package serve

import (
	"bytes"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Chaos configures fault injection on the /v1/* endpoints: a seeded
// error-rate and latency distribution the chaos/soak harness (and
// manual soak runs via the -chaos-* flags) drive resilience tests with.
// The zero value disables injection. Injection happens before the
// handler runs, so an injected error never occupies a worker and an
// injected delay models network/LB pathology rather than slow compute.
type Chaos struct {
	// ErrorRate is the probability in [0,1] that a request is answered
	// with ErrorCode instead of reaching its handler.
	ErrorRate float64
	// ErrorCode is the injected status (default 500). 429 and 503 also
	// exercise the client's Retry-After handling.
	ErrorCode int
	// Latency is the base injected delay per request.
	Latency time.Duration
	// LatencyJitter adds a uniform random delay in [0, LatencyJitter).
	LatencyJitter time.Duration
	// Seed makes the injection sequence reproducible; 0 seeds from the
	// global source.
	Seed int64
}

// enabled reports whether any injection is configured.
func (c Chaos) enabled() bool {
	return c.ErrorRate > 0 || c.Latency > 0 || c.LatencyJitter > 0
}

// chaosState is the live injector: options plus a mutex-protected rand
// stream (handlers draw concurrently).
type chaosState struct {
	opts Chaos
	mu   sync.Mutex
	rng  *rand.Rand
}

func newChaosState(c Chaos) *chaosState {
	if c.ErrorCode == 0 {
		c.ErrorCode = http.StatusInternalServerError
	}
	seed := c.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	return &chaosState{opts: c, rng: rand.New(rand.NewSource(seed))}
}

// draw decides one request's fate.
func (st *chaosState) draw() (delay time.Duration, fail bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delay = st.opts.Latency
	if st.opts.LatencyJitter > 0 {
		delay += time.Duration(st.rng.Int63n(int64(st.opts.LatencyJitter)))
	}
	fail = st.opts.ErrorRate > 0 && st.rng.Float64() < st.opts.ErrorRate
	return delay, fail
}

// SetChaos replaces the fault-injection configuration at runtime (the
// soak harness uses it to phase between steady-state, blackout, and
// recovery). A zero Chaos disables injection.
func (s *Server) SetChaos(c Chaos) {
	if !c.enabled() {
		s.chaos.Store(nil)
		return
	}
	s.chaos.Store(newChaosState(c))
}

// chaosMiddleware injects the configured faults into /v1/* requests.
// Health, metrics, and debug endpoints are exempt so monitoring stays
// trustworthy during a chaos run.
func (s *Server) chaosMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st := s.chaos.Load()
		if st == nil || !strings.HasPrefix(r.URL.Path, "/v1/") {
			next.ServeHTTP(w, r)
			return
		}
		delay, fail := st.draw()
		if delay > 0 {
			// net/http notices a client disconnect only once the body
			// has been read, so read it (up to the largest body cap)
			// before waiting: an aborted request then ends the delay at
			// once. The handler decodes the buffered bytes, and any
			// remainder, under its own cap as before. A read error is
			// dropped because it leaves the buffered body truncated,
			// which the handler's decode rejects.
			buf, _ := io.ReadAll(io.LimitReader(r.Body, maxBatchBody+1))
			r.Body = struct {
				io.Reader
				io.Closer
			}{io.MultiReader(bytes.NewReader(buf), r.Body), r.Body}
			s.chaosInjected.With("latency").Inc()
			t := time.NewTimer(delay)
			select {
			case <-r.Context().Done():
				t.Stop()
				// The client is gone; fall through and let the handler
				// observe the cancelled context.
			case <-t.C:
			}
		}
		if fail {
			s.chaosInjected.With("error").Inc()
			w.Header().Set("X-Maestro-Chaos", "injected-error")
			s.writeError(w, r, &httpError{
				status: st.opts.ErrorCode,
				msg:    "chaos: injected error",
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}
