package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/tensor"
)

var workloads = map[string]func(seed int64) (*workload, error){
	"explore": setupExplore,
	"plan":    setupPlan,
	"serve":   setupServe,
	"fleet":   setupFleet,
}

// vggConvs returns VGG16's 13 convolutional layers.
func vggConvs() []tensor.Layer {
	var out []tensor.Layer
	for _, li := range models.VGG16().Layers {
		if li.Layer.Op == tensor.Conv2D {
			out = append(out, li.Layer)
		}
	}
	return out
}

// dseTemplates are the three parameterized Table 3 styles /v1/dse
// sweeps, with its default tile-size knobs.
func dseTemplates() []dse.Template {
	req := serve.DSERequest{}.WithDefaults()
	yx := serve.DSERequest{Template: "YX-P"}.WithDefaults()
	return []dse.Template{
		{Name: "KC-P", Build: dataflows.KCPSized, P1: req.P1, P2: req.P2},
		{Name: "YR-P", Build: dataflows.YRPSized, P1: req.P1, P2: req.P2},
		{Name: "YX-P", Build: func(p1, _ int) dataflow.Dataflow { return dataflows.YXPSized(p1) }, P1: yx.P1, P2: yx.P2},
	}
}

// exploreCycleTime is the nominal duration of the 39-operation cycle.
const exploreCycleTime = 600 * time.Millisecond

// explorePEs and exploreBWs are the explore workload's hardware axes:
// the Figure 13 bus-bandwidth ladder and a 32-point PE axis.
var (
	explorePEs = func() []int {
		var pes []int
		for p := 32; p <= 1024; p += 32 {
			pes = append(pes, p)
		}
		return pes
	}()
	exploreBWs = func() []float64 {
		var bws []float64
		for b := 1.0; b <= 128; b *= 2 {
			bws = append(bws, b, b*1.5)
		}
		return bws
	}()
)

// exploreSpace is one layer and template's space: the /v1/dse default
// tile knobs, L1/L2 capacity grids and Eyeriss-class area and power
// budget over the explore hardware axes.
func exploreSpace(layer tensor.Layer, t dse.Template) dse.Space {
	req := serve.DSERequest{Template: t.Name}.WithDefaults()
	return dse.Space{
		Layer: layer, Template: t,
		PEs: explorePEs, BWs: exploreBWs,
		L1Grid: req.L1Grid, L2Grid: req.L2Grid,
		AreaBudgetMM2: req.AreaBudgetMM2, PowerBudgetMW: req.PowerBudgetMW,
		Cost:    hw.Default28nm(),
		Workers: 1,
	}
}

// exploreTruth is the expected outcome of one space.
type exploreTruth struct {
	front []dse.Point
	stats dse.Stats
}

// setupExplore builds the 39 (VGG16 conv layer x template) spaces, a
// private profile cache warmed over all of them, and each space's
// Pareto front from a fresh-profile explorer as the independent truth.
// One operation explores one space through the warm cache; the seed
// orders the 39-operation cycle.
func setupExplore(seed int64) (*workload, error) {
	var spaces []dse.Space
	for _, l := range vggConvs() {
		for _, t := range dseTemplates() {
			spaces = append(spaces, exploreSpace(l, t))
		}
	}
	cache := core.NewProfileCache(1 << 14)
	sums := newChecksum()
	truth := make([]exploreTruth, len(spaces))
	for i, sp := range spaces {
		fresh := sp
		fresh.Workers = 2
		pts, st := dse.Explore(fresh)
		front := dse.Pareto(pts)
		dse.SortPoints(front)
		truth[i] = exploreTruth{front, st}
		sums.add(spaceKey(sp), pointStats(front))

		warm := sp
		warm.Profiles = cache
		dse.Explore(warm)
	}
	order := permutation(seed, "explore.order", len(spaces))
	facts := newTally()
	w := &workload{
		cycle:     len(spaces),
		cycleTime: exploreCycleTime,
		sums:      sums,
		facts:     facts,
		close:     func() {},
		counters: func() map[string]float64 {
			return profileCacheCounters(cache)
		},
	}
	w.op = func(ctx context.Context, i int) (int64, func() error, error) {
		k := order[i%len(order)]
		sp := spaces[k]
		sp.Profiles = cache
		sp.Ctx = ctx
		pts, st := dse.Explore(sp)
		_, span := obs.Start(ctx, "dse.pareto")
		front := dse.Pareto(pts)
		span.End()
		facts.add("dse.explore.calls", 1)
		facts.add("dse.raw", float64(st.Raw))
		facts.add("dse.valid", float64(st.Valid))
		facts.add("dse.invoked", float64(st.Invoked))
		return st.Explored, func() error {
			dse.SortPoints(front)
			want := truth[k]
			if st.Valid != want.stats.Valid || st.Explored != want.stats.Explored {
				return fmt.Errorf("explore %s: valid/explored %d/%d, want %d/%d",
					spaceKey(sp), st.Valid, st.Explored, want.stats.Valid, want.stats.Explored)
			}
			if !reflect.DeepEqual(front, want.front) {
				return fmt.Errorf("explore %s: Pareto front differs from the fresh-profile explorer", spaceKey(sp))
			}
			return nil
		}, nil
	}
	w.probe = probeDataflow
	return w, nil
}

func spaceKey(sp dse.Space) string { return sp.Layer.Name + "/" + sp.Template.Name }

// pointStats lists each design's simulated runtime and energy.
func pointStats(pts []dse.Point) []any {
	out := make([]any, 0, 2*len(pts))
	for _, p := range pts {
		out = append(out, p.Runtime, p.EnergyPJ)
	}
	return out
}

// profileCacheCounters snapshots a profile cache's counters.
func profileCacheCounters(c *core.ProfileCache) map[string]float64 {
	return map[string]float64{
		"core.profilecache.hits":      float64(c.Hits()),
		"core.profilecache.misses":    float64(c.Misses()),
		"core.profilecache.evictions": float64(c.Evictions()),
	}
}
