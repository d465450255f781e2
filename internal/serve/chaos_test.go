package serve

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestChaosMiddlewareInjectsErrors: with ErrorRate 1 every /v1/*
// request is answered with the configured status and marker header,
// while health/metrics stay exempt.
func TestChaosMiddlewareInjectsErrors(t *testing.T) {
	s := New(Options{Workers: 1, Chaos: Chaos{
		ErrorRate: 1.0, ErrorCode: http.StatusServiceUnavailable, Seed: 1,
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want injected 503", resp.StatusCode)
	}
	if resp.Header.Get("X-Maestro-Chaos") != "injected-error" {
		t.Fatal("injected error lacks the chaos marker header")
	}
	if got := s.chaosInjected.With("error").Value(); got != 1 {
		t.Fatalf("maestro_chaos_injected_total{kind=error} = %d, want 1", got)
	}

	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s = %d during chaos, want 200 (exempt)", path, resp.StatusCode)
		}
	}
}

// TestChaosMiddlewareLatency: injected latency delays /v1/* requests
// and is counted.
func TestChaosMiddlewareLatency(t *testing.T) {
	s := New(Options{Workers: 1, Chaos: Chaos{
		Latency: 30 * time.Millisecond, Seed: 1,
	}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("request took %v, want >= 30ms injected latency", elapsed)
	}
	if got := s.chaosInjected.With("latency").Value(); got != 1 {
		t.Fatalf("maestro_chaos_injected_total{kind=latency} = %d, want 1", got)
	}
}

// TestChaosLatencyEndsOnClientCancel: a client that gives up during an
// injected delay frees the handler at once instead of holding it for
// the whole delay (a fleet straggler's aborted attempts rely on this).
// Closing the test server waits for every handler to return.
func TestChaosLatencyEndsOnClientCancel(t *testing.T) {
	s := New(Options{Workers: 1, Chaos: Chaos{Latency: 2 * time.Second, Seed: 1}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	body := `{"layer":{"model":"VGG16","name":"CONV1"},"dataflow":{"name":"KC-P"},"hw":{"preset":"Accel256"}}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/analyze", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("request finished with %d inside the injected delay", resp.StatusCode)
	}
	ts.Close()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Fatalf("handler returned %v after the request started; want < 500ms once the client cancels", d)
	}
}

// TestChaosLatencyKeepsBodyCap: buffering the body ahead of the delay
// leaves the endpoint's size cap and its error unchanged.
func TestChaosLatencyKeepsBodyCap(t *testing.T) {
	s := New(Options{Workers: 1, Chaos: Chaos{Latency: time.Millisecond, Seed: 1}})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := `{"layer":{"name":"` + strings.Repeat("x", maxBody) + `"}}`
	resp, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "request body too large") {
		t.Fatalf("oversized body: %d %s; want 400 request body too large", resp.StatusCode, msg)
	}
}

// TestSetChaosRuntime: injection can be enabled and disabled while the
// server runs (the soak harness phases rely on this).
func TestSetChaosRuntime(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() int {
		resp, err := http.Get(ts.URL + "/v1/models")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusOK {
		t.Fatalf("pre-chaos status = %d", got)
	}
	s.SetChaos(Chaos{ErrorRate: 1.0, Seed: 9})
	if got := get(); got != http.StatusInternalServerError {
		t.Fatalf("chaos status = %d, want default 500", got)
	}
	s.SetChaos(Chaos{})
	if got := get(); got != http.StatusOK {
		t.Fatalf("post-chaos status = %d", got)
	}
}
