package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/tensor"
)

// Options configures a Fleet.
type Options struct {
	// Hosts are the maestro-serve base URLs the fleet dispatches to,
	// e.g. {"http://10.0.0.1:8080", "http://10.0.0.2:8080"}. At least
	// one is required; duplicates are a configuration error.
	Hosts []string
	// Client is the per-node client template; BaseURL is overwritten
	// with each host. The zero value uses the client defaults.
	Client client.Options
	// ShardsPerNode sets the target shard count as a multiple of the
	// host count (default 4). More shards mean finer re-dispatch and
	// steal granularity at the cost of per-request overhead; the target
	// is raised automatically when the raw space would otherwise exceed
	// a server's MaxDSEGrid cap per shard.
	ShardsPerNode int
	// InflightPerNode caps the concurrent shard requests per node across
	// every sweep the Fleet runs, of either kind (default 2): concurrent
	// sweeps queue for the same per-node slots.
	InflightPerNode int
	// Rounds bounds how many times a shard may walk the whole ring
	// before the sweep fails (default 3). Each failover within a round
	// is a re-dispatch; a backoff separates full ring wraps.
	Rounds int
	// StragglerFactor triggers work-stealing: a shard whose sole
	// running attempt is older than this multiple of the median
	// completed-shard latency is re-issued on an idle healthy node
	// (default 4; the first finisher wins, the loser is discarded).
	StragglerFactor float64
	// StragglerMin is the minimum attempt age before stealing kicks in
	// (default 150ms), so fast sweeps never pay duplicate work.
	StragglerMin time.Duration
	// WatchTick is the straggler watchdog period (default 25ms).
	WatchTick time.Duration
	// OnShard, when set, streams each accepted shard result as it
	// merges (duplicates from stolen attempts are not streamed). Called
	// from request goroutines; must be safe for concurrent use.
	OnShard func(ShardResult)
	// OnFusionShard is OnShard's fusion twin: it streams each merged
	// fusion chunk (replayed ones included). Called from request
	// goroutines; must be safe for concurrent use.
	OnFusionShard func(FusionShardResult)
	// CheckpointDir, when set, makes sweeps durable: every accepted
	// shard result is appended to a checksummed write-ahead journal in
	// this directory and fsync'd before the shard counts as done. See
	// journal.go for the record format.
	CheckpointDir string
	// Resume replays an existing journal in CheckpointDir before
	// dispatching: shards whose results were durably accepted by an
	// interrupted run are restored from disk and only the remainder is
	// dispatched. Without Resume a pre-existing journal is discarded.
	Resume bool
	// Probe configures the active health prober; the zero value
	// disables it and dispatch relies on circuit breakers alone.
	Probe ProbeOptions
}

func (o Options) withDefaults() Options {
	if o.ShardsPerNode <= 0 {
		o.ShardsPerNode = 4
	}
	if o.InflightPerNode <= 0 {
		o.InflightPerNode = 2
	}
	if o.Rounds <= 0 {
		o.Rounds = 3
	}
	if o.StragglerFactor <= 0 {
		o.StragglerFactor = 4
	}
	if o.StragglerMin <= 0 {
		o.StragglerMin = 150 * time.Millisecond
	}
	if o.WatchTick <= 0 {
		o.WatchTick = 25 * time.Millisecond
	}
	return o
}

// ShardResult is one accepted shard response, streamed via OnShard.
type ShardResult struct {
	Shard    dse.Shard
	Host     string // node that produced the accepted result
	Stolen   bool   // true when a watchdog-stolen attempt won
	Replayed bool   // true when restored from the checkpoint journal
	Resp     *serve.DSEResponse
}

// Result is a completed distributed sweep: the merged Pareto front in
// canonical point order, the per-objective optima, and the aggregated
// exploration counters (counted at-most-once per shard, however many
// attempts ran).
type Result struct {
	Pareto        []dse.Point
	ThroughputOpt *dse.Point
	EnergyOpt     *dse.Point
	EDPOpt        *dse.Point

	Raw      int64
	Explored int64
	Invoked  int64
	Pricings int64
	Valid    int64

	Counters
}

// Rate reports explored designs per wall-clock second.
func (r *Result) Rate() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Explored) / r.Elapsed.Seconds()
}

// NodeStats counts one node's share of fleet traffic.
type NodeStats struct {
	// Shards is the number of shard results accepted from this node.
	Shards int64
	// Errors is the number of failed shard attempts on this node.
	Errors int64
	// Breaker is the node's circuit-breaker position at snapshot time.
	Breaker client.BreakerState
}

// Stats is a point-in-time snapshot of fleet activity.
type Stats struct {
	Sweeps       int64
	Shards       int64
	Redispatched int64
	Stolen       int64
	Discarded    int64
	PerNode      map[string]NodeStats
}

// Fleet dispatches sharded DSE and fusion sweeps across maestro-serve
// nodes. Safe for concurrent use.
type Fleet struct {
	opts    Options
	ring    *ring
	clients map[string]*client.Client
	prober  *prober // nil when probing is disabled
	// sem holds each host's InflightPerNode slots, shared by every sweep.
	sem map[string]chan struct{}

	// Fleet-wide dispatch counters, summed over every sweep of either
	// kind.
	sweeps, shards, redispatched, stolen, discarded atomic.Int64

	mu      sync.Mutex
	perNode map[string]*NodeStats
	// lastLatencies holds the most recent completed sweep's per-shard
	// latencies, feeding the federated shard-timeline quantiles.
	lastLatencies []time.Duration
}

// New builds a Fleet over opts.Hosts.
func New(opts Options) (*Fleet, error) {
	opts = opts.withDefaults()
	if err := validateHosts(opts.Hosts); err != nil {
		return nil, err
	}
	f := &Fleet{
		opts:    opts,
		clients: make(map[string]*client.Client, len(opts.Hosts)),
		sem:     make(map[string]chan struct{}, len(opts.Hosts)),
		perNode: make(map[string]*NodeStats, len(opts.Hosts)),
	}
	for _, h := range opts.Hosts {
		copts := opts.Client
		copts.BaseURL = h
		c, err := client.New(copts)
		if err != nil {
			return nil, fmt.Errorf("fleet: host %q: %w", h, err)
		}
		f.clients[h] = c
		f.sem[h] = make(chan struct{}, opts.InflightPerNode)
		f.perNode[h] = &NodeStats{}
	}
	f.ring = newRing(opts.Hosts)
	if opts.Probe.Interval > 0 {
		f.prober = startProber(f, opts.Probe)
	}
	return f, nil
}

// validateHosts rejects configurations that would silently misbehave:
// an empty list, empty entries, URLs the client cannot dial, and
// duplicates — a host listed twice is double-weighted on the ring and
// double-counted by InflightPerNode, which is never what the operator
// meant.
func validateHosts(hosts []string) error {
	if len(hosts) == 0 {
		return errors.New("fleet: no hosts")
	}
	seen := make(map[string]string, len(hosts))
	for _, h := range hosts {
		if strings.TrimSpace(h) == "" {
			return errors.New("fleet: empty host entry")
		}
		u, err := url.Parse(h)
		if err != nil {
			return fmt.Errorf("fleet: host %q: %w", h, err)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return fmt.Errorf("fleet: host %q: scheme must be http or https", h)
		}
		if u.Host == "" {
			return fmt.Errorf("fleet: host %q: missing host:port authority", h)
		}
		if u.RawQuery != "" || u.Fragment != "" {
			return fmt.Errorf("fleet: host %q: base URL must not carry a query or fragment", h)
		}
		// Normalize so "http://a:8080" and "http://a:8080/" collide.
		key := u.Scheme + "://" + u.Host + strings.TrimRight(u.Path, "/")
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("fleet: duplicate host %q (same node as %q)", h, prev)
		}
		seen[key] = h
	}
	return nil
}

// Close stops the health prober and releases the per-node clients' idle
// connections.
func (f *Fleet) Close() {
	if f.prober != nil {
		f.prober.Close()
	}
	for _, c := range f.clients {
		c.CloseIdleConnections()
	}
}

// Stats snapshots fleet counters and live per-node breaker positions.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	st := Stats{
		Sweeps:       f.sweeps.Load(),
		Shards:       f.shards.Load(),
		Redispatched: f.redispatched.Load(),
		Stolen:       f.stolen.Load(),
		Discarded:    f.discarded.Load(),
		PerNode:      make(map[string]NodeStats, len(f.perNode)),
	}
	for h, ns := range f.perNode {
		st.PerNode[h] = *ns
	}
	f.mu.Unlock()
	// Breaker positions are read live from each client, outside the
	// fleet lock (Stats never calls back into the fleet).
	for h, c := range f.clients {
		ns := st.PerNode[h]
		ns.Breaker = c.BreakerState()
		st.PerNode[h] = ns
	}
	return st
}

// Sweep partitions req's design space, dispatches the shards across the
// fleet, and returns the merged result. The request's unset axes are
// filled with the same defaults a single server applies, so the merged
// front is identical to what one node would compute for the whole
// space. Sweep blocks until every shard completes, the context is
// cancelled, a node refuses a shard with a hard 4xx, or a shard
// exhausts its failover budget.
func (f *Fleet) Sweep(ctx context.Context, req serve.DSERequest) (*Result, error) {
	runs, layer, err := f.plan(req)
	if err != nil {
		return nil, err
	}
	hash, err := sweepHashDSE(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: hashing sweep request: %w", err)
	}
	var res Result
	res.Counters, err = f.run(ctx, sweepSpec{
		kind: journalKindDSE, hash: hash, runs: runs,
		attrs: []obs.Attr{obs.String("layer", layer.Name), obs.String("template", req.Template)},
		merge: func(rec *journalRecord) { res.merge(rec.DSE) },
		stream: func(sr *shardRun, rec *journalRecord, replayed bool) {
			if cb := f.opts.OnShard; cb != nil {
				cb(ShardResult{Shard: sr.shard, Host: rec.Host, Stolen: rec.Stolen, Replayed: replayed, Resp: rec.DSE})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	dse.SortPoints(res.Pareto)
	return &res, nil
}

// plan fills the request's defaults, partitions the design space, and
// computes each shard's scoped request and failover route. The target
// shard count is ShardsPerNode per host, raised when the raw space
// would otherwise exceed a server's per-request cap per shard. PE and
// P1 axes are sorted and deduplicated first so contiguous index chunks
// are contiguous value ranges — which is what the shard descriptor's
// [PEMin, PEMax] expresses — and so repeat sweeps produce byte-equal
// shard requests that hit the nodes' result caches.
func (f *Fleet) plan(req serve.DSERequest) ([]*shardRun, tensor.Layer, error) {
	layer, err := serve.ResolveLayerSpec(req.Layer)
	if err != nil {
		return nil, tensor.Layer{}, fmt.Errorf("fleet: %w", err)
	}
	req = req.WithDefaults()
	req.PEs = sortedDedup(req.PEs)
	p1 := sortedDedup(req.P1)
	req.P1 = p1

	// A shard can only be scoped along the PE and P1 axes; if the
	// remaining axes alone exceed a server's cap, no partition helps.
	inner := int64(len(req.P2)) * int64(len(req.BWs)) *
		int64(len(req.L1Grid)) * int64(len(req.L2Grid))
	if inner > serve.MaxDSEGrid {
		return nil, layer, fmt.Errorf("fleet: inner grid spans %d raw designs per (pe, p1) cell, over the per-shard cap %d", inner, serve.MaxDSEGrid)
	}
	raw := inner * int64(len(req.PEs)) * int64(len(p1))
	target := len(f.opts.Hosts) * f.opts.ShardsPerNode
	if need := int((raw + serve.MaxDSEGrid - 1) / serve.MaxDSEGrid); need > target {
		target = need
	}
	shards := dse.Partition(req.PEs, p1, target)
	if len(shards) == 0 {
		return nil, layer, errors.New("fleet: empty design space")
	}
	runs := make([]*shardRun, 0, len(shards))
	for _, sh := range shards {
		sreq := req
		sreq.P1 = sh.P1
		// Untruncated shard fronts: the global front is a subset of the
		// union of shard fronts only when no shard clips its own.
		sreq.TopK = 1 << 30
		sreq.Shard = &serve.DSEShard{
			Index: sh.Index, Of: sh.Of,
			PEMin: sh.PEs[0], PEMax: sh.PEs[len(sh.PEs)-1],
			Mappings: []string{req.Template},
		}
		// The shard's journal key: its scoped request with the
		// delivery-only knobs zeroed, so a retried sweep with a different
		// timeout still resumes cleanly.
		hreq := sreq
		hreq.TimeoutMs = 0
		hreq.NoCache = false
		hash, err := canonicalHash(journalKindDSE, hreq)
		if err != nil {
			return nil, layer, fmt.Errorf("fleet: hashing shard request: %w", err)
		}
		runs = append(runs, &shardRun{
			shard: sh,
			req:   sreq,
			route: f.ring.order(serve.DSERouteKey(layer, req.Template, sh.PEs)),
			hash:  hash,
		})
	}
	return runs, layer, nil
}

// merge folds one shard response into the running result.
func (r *Result) merge(resp *serve.DSEResponse) {
	pts := make([]dse.Point, len(resp.Pareto))
	for i, j := range resp.Pareto {
		pts[i] = pointFrom(j)
	}
	r.Pareto = dse.MergePareto(r.Pareto, pts)
	r.Raw += resp.Raw
	r.Explored += resp.Explored
	r.Invoked += resp.Invoked
	r.Pricings += resp.Pricings
	r.Valid += resp.Valid
	r.ThroughputOpt = mergeOpt(r.ThroughputOpt, resp.ThroughputOpt, betterThroughput)
	r.EnergyOpt = mergeOpt(r.EnergyOpt, resp.EnergyOpt, betterEnergy)
	r.EDPOpt = mergeOpt(r.EDPOpt, resp.EDPOpt, betterEDP)
}

func betterThroughput(a, b dse.Point) bool {
	if a.Throughput != b.Throughput {
		return a.Throughput > b.Throughput
	}
	return a.EnergyPJ < b.EnergyPJ
}

func betterEnergy(a, b dse.Point) bool {
	if a.EnergyPJ != b.EnergyPJ {
		return a.EnergyPJ < b.EnergyPJ
	}
	return a.Throughput > b.Throughput
}

func betterEDP(a, b dse.Point) bool { return a.EDP < b.EDP }

// mergeOpt folds one shard's per-objective optimum into the running
// optimum with the same comparator dse's selectors use.
func mergeOpt(cur *dse.Point, cand *serve.DSEPointJSON, better func(a, b dse.Point) bool) *dse.Point {
	if cand == nil {
		return cur
	}
	p := pointFrom(*cand)
	if cur == nil || better(p, *cur) {
		return &p
	}
	return cur
}

// pointFrom converts the wire point back to a dse.Point. JSON float64
// round-trips are bit-exact in Go, so merged fleet fronts compare
// bit-identical to locally computed ones.
func pointFrom(j serve.DSEPointJSON) dse.Point {
	return dse.Point{
		NumPEs: j.NumPEs, BW: j.BW, P1: j.P1, P2: j.P2,
		L1Bytes: j.L1Bytes, L2Bytes: j.L2Bytes,
		AreaMM2: j.AreaMM2, PowerMW: j.PowerMW,
		Runtime: j.Runtime, Throughput: j.Throughput,
		EnergyPJ: j.EnergyPJ, EDP: j.EDP,
	}
}

func sortedDedup(s []int) []int {
	out := append([]int(nil), s...)
	sort.Ints(out)
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}
