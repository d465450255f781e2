package serve

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/lru"
)

// This file is the service's identity surface: the build metadata
// behind the maestro_build_info gauge and the GET /v1/status endpoint
// that reports one node's health at a glance — uptime, pool depth,
// cache sizes, segment-store occupancy — without parsing /metrics.

// buildInfo reads the binary's embedded module metadata. Test binaries
// and devel builds report "(devel)"/"unknown" rather than failing.
func buildInfo() (version, goVersion, commit string) {
	version, goVersion, commit = "unknown", runtime.Version(), "unknown"
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return
	}
	if bi.Main.Version != "" {
		version = bi.Main.Version
	}
	if bi.GoVersion != "" {
		goVersion = bi.GoVersion
	}
	for _, s := range bi.Settings {
		if s.Key == "vcs.revision" && s.Value != "" {
			commit = s.Value
		}
	}
	return
}

// StatusResponse is the body of GET /v1/status.
type StatusResponse struct {
	Node          string  `json:"node"`
	Version       string  `json:"version"`
	GoVersion     string  `json:"go_version"`
	Commit        string  `json:"commit"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Workers    int   `json:"workers"`
	QueueDepth int64 `json:"queue_depth"`
	QueueCap   int   `json:"queue_capacity"`
	Inflight   int64 `json:"inflight"`

	Cache        CacheStatus    `json:"cache"`
	ProfileCache CacheStatus    `json:"profile_cache"`
	Segments     SegmentsStatus `json:"trace_segments"`

	Evaluations int64 `json:"evaluations"`
	Rejected    int64 `json:"rejected"`
	Shed        int64 `json:"shed"`
	Timeouts    int64 `json:"timeouts"`

	ChaosEnabled bool `json:"chaos_enabled"`
	// Draining reports that graceful shutdown has begun: the node is
	// alive (this endpoint answered) but /healthz refuses readiness.
	Draining bool `json:"draining"`
}

// CacheStatus summarizes one cache's counters.
type CacheStatus struct {
	Entries   int64 `json:"entries"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	Evictions int64 `json:"evictions"`
}

// SegmentsStatus summarizes the distributed-trace segment store.
type SegmentsStatus struct {
	Enabled bool  `json:"enabled"`
	Traces  int   `json:"traces"`
	Spans   int64 `json:"spans"`
	Dropped int64 `json:"dropped"`
	Expired int64 `json:"expired"`
}

// Status assembles the node's current status snapshot.
func (s *Server) Status() StatusResponse {
	version, goVersion, commit := buildInfo()
	st := StatusResponse{
		Node:          s.opts.NodeName,
		Version:       version,
		GoVersion:     goVersion,
		Commit:        commit,
		UptimeSeconds: time.Since(s.started).Seconds(),

		Workers:    s.opts.Workers,
		QueueDepth: s.pool.QueueDepth(),
		QueueCap:   s.opts.QueueDepth,
		Inflight:   s.pool.Running(),

		Cache:        cacheStatus(s.cache),
		ProfileCache: cacheStatus(core.DefaultProfileCache.Cache),

		Evaluations: s.evaluations.Value(),
		Rejected:    s.rejected.Value(),
		Shed:        s.shed.Value(),
		Timeouts:    s.timeouts.Value(),

		ChaosEnabled: s.chaos.Load() != nil,
		Draining:     s.draining.Load(),
	}
	if s.segments != nil {
		st.Segments = SegmentsStatus{
			Enabled: true,
			Traces:  s.segments.Traces(),
			Spans:   s.segments.SpanCount(),
			Dropped: s.segments.Dropped(),
			Expired: s.segments.Expired(),
		}
	}
	return st
}

// cacheStatus snapshots one of the caches a node reports: its result
// cache or the process-wide shared profile cache.
func cacheStatus[K ~[32]byte, V any](c *lru.Cache[K, V]) CacheStatus {
	return CacheStatus{
		Entries: int64(c.Len()), Hits: c.Hits(), Misses: c.Misses(),
		Coalesced: c.Coalesced(), Evictions: c.Evictions(),
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	s.requests.With("status").Inc()
	s.writeJSON(w, r, http.StatusOK, s.Status())
}
