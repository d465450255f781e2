package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/serve/client"
)

// spanLimit bounds the traced run's recorder; a larger window drops
// spans (reported as obs.dropped_spans) instead of growing without end.
const spanLimit = 1 << 21

// layers are the reported layers, in the order of the stack.
var layers = []string{"core", "dataflow", "dse", "tuner", "netsched", "mapper", "sim", "serve", "client", "fleet"}

// layerOf maps a span name to its layer: the name's first dotted
// element, with dataflows folded into dataflow and the server's
// request span into serve. The benchmark's own "op" root is "other".
func layerOf(name string) string {
	head, _, _ := strings.Cut(name, ".")
	switch head {
	case "dataflows":
		return "dataflow"
	case "http":
		return "serve"
	case "op":
		return "other"
	}
	return head
}

// traced runs an untraced half window and a traced half window, pulls
// the node-side spans of the traced operations, runs the workload's
// probes, writes the Chrome trace and derives the per-layer metrics.
func traced(name string, seed int64, w *workload, d time.Duration, dir string) output {
	base := w.run(d/2, nil)
	before := w.snapshot()
	rec := obs.NewRecorder(obs.WithLimit(spanLimit))
	win := w.run(d/2, rec)
	after := w.snapshot()

	lanes, nodeDropped := pullSegments(w.nodes, win.traces)
	ctx, span := obs.Start(obs.WithRecorder(context.Background(), rec), "probe")
	w.probe(ctx)
	span.End()

	local := rec.Snapshot()
	all := append([]obs.SpanRecord(nil), local...)
	for _, l := range lanes {
		all = append(all, l...)
	}
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	ops := float64(len(win.lat))
	m := layerMetrics(all, delta, ops)
	m["obs.overhead_ratio"] = metric{
		(float64(len(base.lat)) / base.wall.Seconds()) / math.Max(ops/win.wall.Seconds(), 1e-9), "ratio"}
	m["obs.dropped_spans"] = metric{float64(rec.Dropped() + nodeDropped), "count"}

	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := writeLanes(path, local, lanes); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing the trace: %v\n", err)
	} else {
		fmt.Printf("%s: wrote %s (%d spans)\n", name, path, len(all))
	}
	failed := base.failed + win.failed
	return output{
		Correct:   failed == 0,
		Attempted: base.attempted + win.attempted,
		Failed:    failed,
		Metrics:   m,
	}
}

// snapshot merges the workload's public counters with its tallied
// per-operation results.
func (w *workload) snapshot() map[string]float64 {
	m := w.facts.snapshot()
	for k, v := range w.counters() {
		m[k] = v
	}
	return m
}

// nodeIDBase offsets node k's span IDs into their own range, so stitched
// node spans never collide with the benchmark's.
func nodeIDBase(k int) uint64 { return uint64(k+1) << 40 }

// pullSegments fetches each traced operation's node-side spans from
// every node and re-parents each node root under the client attempt
// that carried it. Nodes share this process's clock, so no skew
// correction applies.
func pullSegments(nodes []*client.Client, traces []string) ([][]obs.SpanRecord, int64) {
	lanes := make([][]obs.SpanRecord, len(nodes))
	var dropped int64
	ctx := context.Background()
	for k, c := range nodes {
		base := nodeIDBase(k)
		for _, id := range traces {
			seg, err := c.TraceSegments(ctx, id)
			if err != nil {
				continue
			}
			dropped += seg.Dropped
			for _, s := range obs.RecordsFromJSON(seg.Spans) {
				s.ID += base
				s.Track += base
				if s.Parent != 0 {
					s.Parent += base
				} else {
					s.Parent = s.RemoteParent
				}
				lanes[k] = append(lanes[k], s)
			}
		}
	}
	return lanes, dropped
}

// writeLanes writes the benchmark's spans and each node's as one Chrome
// trace, one process lane each.
func writeLanes(path string, local []obs.SpanRecord, nodes [][]obs.SpanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	lanes := []obs.Lane{{PID: 0, Process: "perfbench", Spans: local}}
	epoch := time.Now()
	for _, s := range local {
		if s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	for k, spans := range nodes {
		lanes = append(lanes, obs.Lane{PID: k + 1, Process: fmt.Sprintf("node%d", k), Spans: spans})
	}
	if err := obs.WriteChromeLanes(f, epoch, lanes); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	inOps int             // spans inside operation trees
	durs  []time.Duration // every span of the name (operations and probes)
	self  time.Duration   // self time inside operation trees
	attrs map[string]float64
}

func (s *spanStats) meanUS() float64 {
	if s == nil || len(s.durs) == 0 {
		return 0
	}
	var t time.Duration
	for _, d := range s.durs {
		t += d
	}
	return float64(t.Microseconds()) / float64(len(s.durs))
}

func (s *spanStats) medianUS() float64 {
	if s == nil || len(s.durs) == 0 {
		return 0
	}
	return float64(medianDuration(s.durs).Nanoseconds()) / 1e3
}

// attribution is the outcome of walking every operation tree.
type attribution struct {
	byName  map[string]*spanStats
	byLayer map[string]time.Duration // self time per layer ("other" is the op root)
	opWall  time.Duration
}

// attribute walks each "op"-rooted trace: every span's self time (its
// duration minus the union of its children) goes to its layer. Spans
// outside an operation tree (the probes) count only toward per-call
// durations.
func attribute(spans []obs.SpanRecord) attribution {
	a := attribution{byName: map[string]*spanStats{}, byLayer: map[string]time.Duration{}}
	children := map[uint64][]int{}
	byTrace := map[string][]int{}
	for i, s := range spans {
		byTrace[s.TraceID] = append(byTrace[s.TraceID], i)
		st := a.byName[s.Name]
		if st == nil {
			st = &spanStats{attrs: map[string]float64{}}
			a.byName[s.Name] = st
		}
		st.durs = append(st.durs, s.Duration())
		for _, at := range s.Attrs {
			if v, ok := at.Value().(int64); ok {
				st.attrs[at.Key] += float64(v)
			}
		}
	}
	for _, idx := range byTrace {
		var root = -1
		local := map[uint64]int{}
		for _, i := range idx {
			local[spans[i].ID] = i
		}
		for _, i := range idx {
			s := spans[i]
			if _, ok := local[s.Parent]; ok && s.Parent != 0 {
				children[s.Parent] = append(children[s.Parent], i)
			} else if s.Name == "op" {
				root = i
			}
		}
		if root < 0 {
			continue
		}
		a.opWall += spans[root].Duration()
		stack := []int{root}
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			s := spans[i]
			var ivs []interval
			for _, c := range children[s.ID] {
				cs := spans[c]
				ivs = append(ivs, interval{cs.Start.UnixNano(), cs.End.UnixNano()})
				stack = append(stack, c)
			}
			self := time.Duration(selfTime(s.Start.UnixNano(), s.End.UnixNano(), ivs))
			a.byLayer[layerOf(s.Name)] += self
			st := a.byName[s.Name]
			st.inOps++
			st.self += self
		}
		for _, i := range idx {
			delete(children, spans[i].ID)
		}
	}
	return a
}

// layerMetrics derives the per-layer metrics from the traced window's
// spans and counter deltas over ops operations.
func layerMetrics(spans []obs.SpanRecord, delta map[string]float64, ops float64) map[string]metric {
	a := attribute(spans)
	get := func(name string) *spanStats { return a.byName[name] }
	perOp := func(name string) float64 {
		if st := get(name); st != nil {
			return float64(st.inOps) / math.Max(ops, 1)
		}
		return 0
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	count := func(name string) float64 {
		if st := get(name); st != nil {
			return float64(len(st.durs))
		}
		return 0
	}
	attr := func(name, key string) float64 {
		if st := get(name); st != nil {
			return st.attrs[key]
		}
		return 0
	}
	selfMS := func(name string) float64 {
		if st := get(name); st != nil && st.inOps > 0 {
			return float64(st.self.Microseconds()) / 1e3 / float64(st.inOps)
		}
		return 0
	}
	priceBatch := get("core.price_batch")
	var pbNS float64
	if priceBatch != nil {
		var t time.Duration
		for _, d := range priceBatch.durs {
			t += d
		}
		pbNS = ratio(float64(t.Nanoseconds()), priceBatch.attrs["points"])
	}
	shard := get("fleet.shard")
	var shardP50 float64
	if shard != nil {
		shardP50 = shard.medianUS() / 1e3
	}
	var nodeShards, maxNode float64
	for k, v := range delta {
		if strings.HasPrefix(k, "fleet.node.") {
			nodeShards += v
			maxNode = math.Max(maxNode, v)
		}
	}
	sweeps := delta["fleet.sweep.calls"]
	hitUS := get("serve.handler.hit").medianUS()
	clientUS := get("client.call.hit").medianUS()
	clientOverhead := 0.0
	if hitUS > 0 && clientUS > 0 {
		clientOverhead = clientUS - hitUS
	}
	attempts := ratio(delta["client.attempts"], delta["client.calls"])
	if attempts == 0 {
		attempts = ratio(count("client.attempt"), count("fleet.shard"))
	}

	m := map[string]metric{
		"core.profile.calls":               {perOp("core.profile"), "count"},
		"core.profile.us_per_call":         {get("core.profile").meanUS(), "us"},
		"core.price_batch.calls":           {perOp("core.price_batch"), "count"},
		"core.price_batch.points_per_call": {ratio(attr("core.price_batch", "points"), count("core.price_batch")), "count"},
		"core.price_batch.ns_per_point":    {pbNS, "ns"},
		"core.analyze.calls":               {perOp("core.analyze"), "count"},
		"core.analyze.us_per_call":         {get("core.analyze").meanUS(), "us"},
		"core.profilecache.hit_ratio": {ratio(delta["core.profilecache.hits"],
			delta["core.profilecache.hits"]+delta["core.profilecache.misses"]), "ratio"},
		"core.profilecache.evictions": {ratio(delta["core.profilecache.evictions"], ops), "count"},

		"dataflows.get.us_per_call":     {get("dataflows.get").meanUS(), "us"},
		"dataflow.resolve.us_per_call":  {get("dataflow.resolve").meanUS(), "us"},
		"dataflow.augment.us_per_call":  {get("dataflow.augment").meanUS(), "us"},
		"dse.explore.us_per_call":       {get("dse.explore").meanUS(), "us"},
		"dse.explore.mappings_per_call": {ratio(count("dse.mapping"), count("dse.explore")), "count"},
		"dse.explore.valid_ratio":       {ratio(delta["dse.valid"], delta["dse.raw"]), "ratio"},
		"dse.pareto.us_per_call":        {get("dse.pareto").meanUS(), "us"},

		"tuner.tune_layer.calls":       {count("tuner.layer"), "count"},
		"tuner.tune_layer.us_per_call": {get("tuner.layer").meanUS(), "us"},
		"tuner.candidates_per_layer":   {ratio(attr("tuner.layer", "evaluated"), count("tuner.layer")), "count"},

		"netsched.run_fused.self_ms_per_call": {selfMS("netsched.run_fused"), "ms"},
		"netsched.fused_groups":               {ratio(delta["netsched.fused_groups"], delta["netsched.run_fused.calls"]), "count"},
		"netsched.dram_saved_ratio":           {ratio(delta["netsched.dram_saved"], delta["netsched.dram_baseline"]), "ratio"},

		"mapper.search.ms_per_call":    {get("mapper.search").meanUS() / 1e3, "ms"},
		"mapper.evaluated_per_call":    {ratio(delta["mapper.evaluated"], delta["mapper.search.calls"]), "count"},
		"sim.replay_fused.us_per_call": {get("sim.replay_fused").meanUS(), "us"},
		"sim.verify_failures":          {delta["sim.verify_failures"], "count"},

		"serve.handler.hit_us":   {hitUS, "us"},
		"serve.handler.miss_us":  {get("serve.handler.miss").medianUS(), "us"},
		"serve.cache.hit_ratio":  {ratio(delta["serve.cache.hits"], delta["serve.cache.hits"]+delta["serve.cache.misses"]), "ratio"},
		"serve.stage.queue_us":   {1e6 * ratio(delta["serve.stage.queue.sum"], delta["serve.stage.queue.count"]), "us"},
		"serve.stage.compute_us": {1e6 * ratio(delta["serve.stage.compute.sum"], delta["serve.stage.compute.count"]), "us"},
		"serve.rejected":         {delta["serve.rejected"], "count"},

		"client.overhead_us":       {clientOverhead, "us"},
		"client.attempts_per_call": {attempts, "count"},
		"fleet.sweep.ms_per_call":  {get("fleet.sweep").meanUS() / 1e3, "ms"},
		"fleet.shard.p50_ms":       {shardP50, "ms"},
		"fleet.shards_per_sweep":   {ratio(delta["fleet.shards"], sweeps), "count"},
		"fleet.max_node_share":     {ratio(maxNode, nodeShards), "ratio"},
		"fleet.redispatched":       {delta["fleet.redispatched"], "count"},
		"fleet.stolen":             {delta["fleet.stolen"], "count"},
		"fleet.discarded":          {delta["fleet.discarded"], "count"},
	}
	var total time.Duration
	for _, d := range a.byLayer {
		total += d
	}
	inOps := 0
	for _, st := range a.byName {
		inOps += st.inOps
	}
	m["obs.spans_per_op"] = metric{float64(inOps) / math.Max(ops, 1), "count"}
	for _, l := range layers {
		m[l+".self_share"] = metric{ratio(float64(a.byLayer[l]), float64(total)), "ratio"}
	}
	m["other.share"] = metric{ratio(float64(a.byLayer["other"]), float64(total)), "ratio"}
	fmt.Printf("attribution: layer self time %.3fs over %.3fs of operation wall time\n",
		total.Seconds(), a.opWall.Seconds())
	return m
}

// probeDataflow times the dataflow front end directly: the Table 3
// lookup, then augmenting and resolving one mapping onto a VGG16 layer.
func probeDataflow(ctx context.Context) {
	li, _ := models.VGG16().Find("CONV11")
	for j := 0; j < 50; j++ {
		for _, name := range dataflows.Names {
			_, span := obs.Start(ctx, "dataflows.get")
			df := dataflows.Get(name)
			span.End()
			_, span = obs.Start(ctx, "dataflow.augment")
			dataflow.Augment(df, li.Layer)
			span.End()
			_, span = obs.Start(ctx, "dataflow.resolve")
			dataflow.Resolve(df, li.Layer, 256)
			span.End()
		}
	}
}
