package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/tensor"
)

// Serve workload shape.
var (
	serveWorkers   = 2
	serveMissPool  = 6000 // above both cache capacities, so a miss never hits
	serveHotStride = 16   // every 16th zoo layer joins the hot set
	serveMixShape  = serveMix{missShare: 0.10, batchShare: 0.02, batchSize: 8, zipfS: 1.1}
	servePresets   = []string{"Accel256", "MAERI64", "Eyeriss168"}
	missDataflows  = []string{"KC-P", "YR-P", "X-P"}
	// The request stream has no natural cycle; windows are counted in
	// blocks of serveCycle requests of nominal duration serveCycleTime.
	serveCycle     = 500
	serveCycleTime = 160 * time.Millisecond
)

var presetConfigs = map[string]func() hw.Config{
	"Accel256": hw.Accel256, "MAERI64": hw.MAERI64, "Eyeriss168": hw.Eyeriss168,
}

// keyed is one analyze request with its expected engine result.
type keyed struct {
	req  serve.AnalyzeRequest
	want expected
}

// expected holds the engine-result fields a served analysis must match.
type expected struct {
	runtime, onChipRuntime, macs  int64
	usedPEs                       int
	dramReads, dramWrites, l1, l2 int64
	spill                         bool
	bottleneck                    string
	energyTotal, energyOnChip     float64
}

// expect computes a request's truth with the uncached fused engine walk
// (the server answers through the profile cache and PriceBatch).
func expect(req serve.AnalyzeRequest, layer tensor.Layer, df dataflow.Dataflow) (keyed, error) {
	cfg := presetConfigs[req.HW.Preset]().Normalize()
	r, err := core.AnalyzeDataflow(df, layer, cfg)
	if err != nil {
		return keyed{}, err
	}
	e := r.EnergyDefault()
	return keyed{req, expected{
		runtime: r.Runtime, onChipRuntime: r.OnChipRuntime, macs: r.MACs,
		usedPEs:   r.UsedPEs,
		dramReads: r.DRAMReads, dramWrites: r.DRAMWrites, l1: r.L1ReqBytes(), l2: r.L2ReqBytes(),
		spill: r.L2Spill, bottleneck: r.Bottleneck,
		energyTotal: e.Total(), energyOnChip: e.OnChip(),
	}}, nil
}

// hotSet lists the (zoo layer x Table 3 dataflow x preset) requests the
// engine maps, with their truth.
func hotSet() []keyed {
	var out []keyed
	n := 0
	for _, name := range models.Zoo() {
		m, _ := models.ByName(name)
		for _, li := range m.Layers {
			n++
			if n%serveHotStride != 0 {
				continue
			}
			for _, dfName := range dataflows.Names {
				for _, preset := range servePresets {
					req := serve.AnalyzeRequest{
						Layer:    serve.LayerSpec{Model: name, Name: li.Layer.Name},
						Dataflow: serve.DataflowSpec{Name: dfName},
						HW:       serve.HWSpec{Preset: preset},
					}
					if k, err := expect(req, li.Layer, dataflows.Get(dfName)); err == nil {
						out = append(out, k)
					}
				}
			}
		}
	}
	return out
}

// missSet turns seeded shapes into inline-layer requests with truth,
// skipping any shape its dataflow cannot map.
func missSet(seed int64, stream string, shapes []convShape) []keyed {
	r := newRand(seed, stream)
	var out []keyed
	for i, s := range shapes {
		dfName := missDataflows[r.Intn(len(missDataflows))]
		ls := serve.LayerSpec{
			Op: "CONV2D", Name: fmt.Sprintf("miss%d", i),
			N: 1, K: s.K, C: s.C, Y: s.Y, X: s.X, R: s.R, S: s.R,
		}
		layer, err := serve.ResolveLayerSpec(ls)
		if err != nil {
			continue
		}
		req := serve.AnalyzeRequest{
			Layer: ls, Dataflow: serve.DataflowSpec{Name: dfName}, HW: serve.HWSpec{Preset: "Accel256"},
		}
		if k, err := expect(req, layer, dataflows.Get(dfName)); err == nil {
			out = append(out, k)
		}
	}
	return out
}

// checkAnalyze compares a served analysis with its engine truth.
func checkAnalyze(got *serve.AnalyzeResponse, want expected) error {
	switch {
	case got == nil:
		return fmt.Errorf("empty response")
	case got.Runtime != want.runtime, got.OnChipRuntime != want.onChipRuntime,
		got.MACs != want.macs, got.UsedPEs != want.usedPEs,
		got.DRAMReads != want.dramReads, got.DRAMWrites != want.dramWrites,
		got.L1ReqBytes != want.l1, got.L2ReqBytes != want.l2,
		got.L2Spill != want.spill, got.Bottleneck != want.bottleneck,
		got.Energy.Total != want.energyTotal, got.Energy.OnChip != want.energyOnChip:
		return fmt.Errorf("%s/%s/%s: served runtime %d dram %d/%d energy %g, engine %d %d/%d %g",
			got.Layer, got.Dataflow, got.HW, got.Runtime, got.DRAMReads, got.DRAMWrites, got.Energy.Total,
			want.runtime, want.dramReads, want.dramWrites, want.energyTotal)
	}
	return nil
}

// node is one in-process serve node on a loopback listener.
type node struct {
	srv *serve.Server
	ts  *httptest.Server
}

func startNode(name string, workers int) node {
	srv := serve.New(serve.Options{Workers: workers, NodeName: name, SegmentTraces: 1 << 16})
	return node{srv, httptest.NewServer(srv.Handler())}
}

func (n node) close() {
	n.ts.Close()
	n.srv.Close()
}

// setupServe starts one server and its closed-loop client. Hits draw
// from a Zipf-ranked hot set warmed into the result cache at set-up;
// misses walk a seeded pool of inline shapes larger than both caches,
// so each one is a cold profile walk; a small share are 8-item batches
// over the hot set.
func setupServe(seed int64) (*workload, error) {
	hot := hotSet()
	miss := missSet(seed, "serve.miss.dataflow", missShapes(seed, serveMissPool))
	sums := newChecksum()
	for _, k := range append(append([]keyed(nil), hot...), miss...) {
		sums.add(jsonKey(k.req), k.want.runtime, k.want.dramReads+k.want.dramWrites, k.want.energyTotal)
	}
	nd := startNode("bench", serveWorkers)
	cl, err := client.New(client.Options{BaseURL: nd.ts.URL, Seed: seed})
	if err != nil {
		nd.close()
		return nil, err
	}
	ctx := context.Background()
	for _, k := range hot {
		if _, err := cl.Analyze(ctx, k.req); err != nil {
			nd.close()
			return nil, fmt.Errorf("warming %v: %w", k.req.Layer, err)
		}
	}
	stream := newServeStream(seed, len(hot), serveMixShape)
	nextMiss := 0
	facts := newTally()
	w := &workload{
		cycle:     serveCycle,
		cycleTime: serveCycleTime,
		sums:      sums,
		facts:     facts,
		nodes:     []*client.Client{cl},
		close:     nd.close,
		counters: func() map[string]float64 {
			m := serveCounters(nd.srv)
			for k, v := range profileCacheCounters(core.DefaultProfileCache) {
				m[k] = v
			}
			m["client.attempts"] = float64(cl.Stats().Attempts)
			return m
		},
	}
	w.op = func(ctx context.Context, i int) (int64, func() error, error) {
		op := stream.next()
		facts.add("client.calls", 1)
		switch op.kind {
		case opBatch:
			breq := serve.BatchRequest{Requests: make([]serve.AnalyzeRequest, len(op.keys))}
			for j, k := range op.keys {
				breq.Requests[j] = hot[k].req
			}
			resp, err := cl.AnalyzeBatch(ctx, breq)
			if err != nil {
				return 0, nil, err
			}
			return int64(len(op.keys)), func() error {
				if len(resp.Results) != len(op.keys) {
					return fmt.Errorf("batch: %d results for %d requests", len(resp.Results), len(op.keys))
				}
				for j, it := range resp.Results {
					if it.Error != "" {
						return fmt.Errorf("batch item %d: %s", j, it.Error)
					}
					if err := checkAnalyze(it.Result, hot[op.keys[j]].want); err != nil {
						return fmt.Errorf("batch item %d: %w", j, err)
					}
				}
				return nil
			}, nil
		default:
			var k keyed
			if op.kind == opMiss {
				k = miss[nextMiss%len(miss)]
				nextMiss++
			} else {
				k = hot[op.keys[0]]
			}
			resp, err := cl.Analyze(ctx, k.req)
			if err != nil {
				return 0, nil, err
			}
			return 1, func() error { return checkAnalyze(resp, k.want) }, nil
		}
	}
	probeMiss := missSet(seed, "serve.probe.dataflow", probeShapes(seed, 64))
	w.probe = func(ctx context.Context) {
		probeDataflow(ctx)
		probeHandler(ctx, nd.srv.Handler(), cl, hot[hotRank(len(hot))[0]], probeMiss)
	}
	return w, nil
}

// jsonKey is a request's JSON body, which also keys its checksum entry.
// The requests are plain structs, which always marshal.
func jsonKey(req any) string {
	b, _ := json.Marshal(req)
	return string(b)
}

// probeShapes are seeded shapes outside the miss pool's size band, so a
// probe miss is never warmed by the loop.
func probeShapes(seed int64, n int) []convShape {
	shapes := missShapes(seed^0x5eed, n)
	for i := range shapes {
		shapes[i].Y += 20
		shapes[i].X += 20
	}
	return shapes
}

// probeHandler times the same hit request through the in-process
// handler and through the client, and fresh misses through the handler.
func probeHandler(ctx context.Context, h http.Handler, cl *client.Client, hit keyed, misses []keyed) {
	body := jsonKey(hit.req)
	for j := 0; j < 300; j++ {
		_, span := obs.Start(ctx, "serve.handler.hit")
		serveInProcess(h, body)
		span.End()
		// The client call carries no trace context, so the node records
		// no segment for it, exactly like the handler call above.
		_, span = obs.Start(ctx, "client.call.hit")
		_, err := cl.Analyze(context.Background(), hit.req)
		span.End()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: client probe: %v\n", err)
			return
		}
	}
	for _, k := range misses {
		_, span := obs.Start(ctx, "serve.handler.miss")
		serveInProcess(h, jsonKey(k.req))
		span.End()
	}
}

func serveInProcess(h http.Handler, body string) {
	req := httptest.NewRequest(http.MethodPost, "/v1/analyze", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(httptest.NewRecorder(), req)
}

// serveCounters reads a server's cache, rejection and stage counters
// from its metrics registry.
func serveCounters(srvs ...*serve.Server) map[string]float64 {
	want := map[string]string{
		"maestro_cache_hits_total":                     "serve.cache.hits",
		"maestro_cache_misses_total":                   "serve.cache.misses",
		"maestro_rejected_total":                       "serve.rejected",
		`maestro_stage_seconds_sum{stage="queue"}`:     "serve.stage.queue.sum",
		`maestro_stage_seconds_count{stage="queue"}`:   "serve.stage.queue.count",
		`maestro_stage_seconds_sum{stage="compute"}`:   "serve.stage.compute.sum",
		`maestro_stage_seconds_count{stage="compute"}`: "serve.stage.compute.count",
	}
	out := map[string]float64{}
	for _, srv := range srvs {
		for _, line := range strings.Split(srv.Metrics().Render(), "\n") {
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				continue
			}
			if key, ok := want[name]; ok {
				v, _ := strconv.ParseFloat(val, 64)
				out[key] += v
			}
		}
	}
	return out
}
