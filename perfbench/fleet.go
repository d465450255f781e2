package main

import (
	"context"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/serve/client"
)

// Fleet workload shape: two single-worker nodes, one sweep per VGG16
// conv layer and a fusion sweep after every fusionEvery sweeps. Fusion
// sweeps are 2 of the 15 operations of a cycle, so the p90 latency
// falls inside their band rather than on its edge.
var (
	fusionEvery   = 7
	fleetNodes    = []string{"node0", "node1"}
	fleetPEs      = []int{32, 64, 96, 128, 192, 256, 384, 512}
	fleetFusion   = serve.FusionRequest{Model: "AlexNet", HW: serve.HWSpec{Preset: "Accel256"}, Dataflow: "KC-P"}
	fleetTemplate = "KC-P"
	// fleetCycleTime is the nominal duration of the 15-operation cycle.
	fleetCycleTime = 130 * time.Millisecond
)

// rewriteTransport maps the fixed node names onto the loopback
// listeners, so the consistent-hash ring (built from host names) places
// shards identically in every run whatever ports the listeners get.
type rewriteTransport struct{ targets map[string]string }

func (rt rewriteTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	tgt, ok := rt.targets[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("unknown fleet host %q", req.URL.Host)
	}
	r2 := req.Clone(req.Context())
	r2.URL.Host = tgt
	return http.DefaultTransport.RoundTrip(r2)
}

// fleetTruth computes a sweep on one in-process explorer, the way a
// single serve node would: same defaults, cost model and profile cache.
func fleetTruth(req serve.DSERequest) ([]dse.Point, error) {
	layer, err := serve.ResolveLayerSpec(req.Layer)
	if err != nil {
		return nil, err
	}
	req = req.WithDefaults()
	var tmpl dse.Template
	for _, t := range dseTemplates() {
		if t.Name == req.Template {
			tmpl = t
		}
	}
	tmpl.P1, tmpl.P2 = req.P1, req.P2
	pts, _ := dse.Explore(dse.Space{
		Layer: layer, Template: tmpl,
		PEs: req.PEs, BWs: req.BWs,
		L1Grid: req.L1Grid, L2Grid: req.L2Grid,
		AreaBudgetMM2: req.AreaBudgetMM2, PowerBudgetMW: req.PowerBudgetMW,
		Cost:     hw.Default28nm(),
		Profiles: core.DefaultProfileCache,
	})
	front := dse.Pareto(pts)
	dse.SortPoints(front)
	return front, nil
}

// fusionTruth runs a fusion sweep locally.
func fusionTruth(req serve.FusionRequest) ([]dse.FusionPoint, error) {
	req = req.WithDefaults()
	m, ok := models.ByName(req.Model)
	if !ok {
		return nil, fmt.Errorf("unknown model %q", req.Model)
	}
	cfg := presetConfigs[req.HW.Preset]()
	if req.HW.L2Bytes != 0 {
		cfg.L2Size = req.HW.L2Bytes
	}
	pts, _, err := dse.ExploreFusion(dse.FusionSpace{
		Model: m, Cfg: cfg.Normalize(), Dataflow: req.Dataflow,
		L2Grid: req.L2Grid, MaxGroupLayers: req.MaxGroupLayers,
	})
	return pts, err
}

// setupFleet starts two serve nodes behind fixed names and a fleet
// coordinator over them, and computes every sweep's front locally as
// truth (which also warms the nodes' shared profile cache). One cycle
// is a NoCache sweep per VGG16 conv layer in seeded order, with a
// fusion sweep after every fusionEvery of them and after the last.
func setupFleet(seed int64) (*workload, error) {
	targets := map[string]string{}
	var nodes []node
	var hosts []string
	for _, name := range fleetNodes {
		nd := startNode(name, 1)
		u, _ := url.Parse(nd.ts.URL)
		targets[name] = u.Host
		nodes = append(nodes, nd)
		hosts = append(hosts, "http://"+name)
	}
	closeNodes := func() {
		for _, nd := range nodes {
			nd.close()
		}
	}
	hc := &http.Client{Transport: rewriteTransport{targets}}
	f, err := fleet.New(fleet.Options{
		Hosts:           hosts,
		Client:          client.Options{HTTPClient: hc, Seed: seed},
		InflightPerNode: 1,
	})
	if err != nil {
		closeNodes()
		return nil, err
	}
	var nodeClients []*client.Client
	for _, h := range hosts {
		c, err := client.New(client.Options{BaseURL: h, HTTPClient: hc, MaxAttempts: 1})
		if err != nil {
			f.Close()
			closeNodes()
			return nil, err
		}
		nodeClients = append(nodeClients, c)
	}

	convs := vggConvs()
	reqs := make([]serve.DSERequest, len(convs))
	fronts := make([][]dse.Point, len(convs))
	sums := newChecksum()
	for i, l := range convs {
		reqs[i] = serve.DSERequest{
			Layer:    serve.LayerSpec{Model: "VGG16", Name: l.Name},
			Template: fleetTemplate,
			PEs:      fleetPEs,
			NoCache:  true,
		}
		if fronts[i], err = fleetTruth(reqs[i]); err != nil {
			f.Close()
			closeNodes()
			return nil, err
		}
		sums.add("sweep/"+l.Name, pointStats(fronts[i]))
	}
	fusionReq := fleetFusion
	fusionReq.NoCache = true
	fusionPts, err := fusionTruth(fusionReq)
	if err != nil {
		f.Close()
		closeNodes()
		return nil, err
	}
	for _, p := range fusionPts {
		sums.add(fmt.Sprintf("fusion/%d/%d", p.L2Bytes, p.MaxGroupLayers), p.TotalCycles, p.DRAMTraffic, p.EnergyPJ)
	}

	// The cycle lists conv-layer indices in seeded order, with -1 for a
	// fusion sweep.
	var cycle []int
	for n, k := range permutation(seed, "fleet.order", len(convs)) {
		cycle = append(cycle, k)
		if (n+1)%fusionEvery == 0 || n == len(convs)-1 {
			cycle = append(cycle, -1)
		}
	}
	facts := newTally()
	w := &workload{
		cycle:     len(cycle),
		cycleTime: fleetCycleTime,
		sums:      sums,
		facts:     facts,
		nodes:     nodeClients,
		close: func() {
			f.Close()
			closeNodes()
		},
		counters: func() map[string]float64 {
			m := serveCounters(nodes[0].srv, nodes[1].srv)
			for k, v := range profileCacheCounters(core.DefaultProfileCache) {
				m[k] = v
			}
			st := f.Stats()
			for h, ns := range st.PerNode {
				m["fleet.node."+h] = float64(ns.Shards)
			}
			return m
		},
	}
	w.op = func(ctx context.Context, i int) (int64, func() error, error) {
		k := cycle[i%len(cycle)]
		if k < 0 {
			res, err := f.SweepFusion(ctx, fusionReq)
			if err != nil {
				return 0, nil, err
			}
			facts.add("fleet.fusion.calls", 1)
			return res.Raw, func() error {
				if !reflect.DeepEqual(res.Points, fusionPts) {
					return fmt.Errorf("fusion sweep of %s differs from the local explorer", fusionReq.Model)
				}
				return nil
			}, nil
		}
		res, err := f.Sweep(ctx, reqs[k])
		if err != nil {
			return 0, nil, err
		}
		facts.add("fleet.sweep.calls", 1)
		facts.add("fleet.shards", float64(res.Shards))
		facts.add("fleet.redispatched", float64(res.Redispatched))
		facts.add("fleet.stolen", float64(res.Stolen))
		facts.add("fleet.discarded", float64(res.Discarded))
		facts.add("dse.raw", float64(res.Raw))
		facts.add("dse.valid", float64(res.Valid))
		return res.Explored, func() error {
			if !reflect.DeepEqual(res.Pareto, fronts[k]) {
				return fmt.Errorf("sweep of VGG16 %s: front differs from the local explorer", convs[k].Name)
			}
			return nil
		}, nil
	}
	w.probe = probeDataflow
	return w, nil
}
