// Package netsched schedules a whole network layer by layer on one
// accelerator. Beyond summing per-layer costs it models the inter-layer
// data movement the paper's Table 4 points at:
//
//   - an activation produced by layer i can stay resident in the shared
//     L2 scratchpad and feed layer i+1 without a DRAM round trip, when
//     capacity allows;
//   - residual (skip) connections pin their source activation in L2
//     across the intervening layers — or pay the "extra global buffer /
//     DRAM accesses to fetch previous activation" the paper lists.
//
// Dataflows are chosen per layer: a fixed style, or the auto-tuner.
package netsched

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// Edge is a skip connection: the output of layer From (index into the
// model's layer list) is consumed again by layer To (> From+1).
type Edge struct {
	From, To int
}

// Options configures a schedule.
type Options struct {
	// Dataflow maps each layer to its mapping; nil uses the auto-tuner
	// with the Objective below.
	Dataflow func(tensor.Layer) (dataflow.Dataflow, bool)
	// Objective drives the tuner when Dataflow is nil.
	Objective tuner.Objective
	// L2Bytes is the shared scratchpad capacity available for staging
	// and inter-layer residency. Zero disables residency (every layer
	// round-trips DRAM), reproducing a plain per-layer sum.
	L2Bytes int64
	// Residuals lists skip connections.
	Residuals []Edge
}

// LayerPlan is one scheduled layer.
type LayerPlan struct {
	Inst     models.LayerInst
	Dataflow dataflow.Dataflow
	Result   *core.Result
	// InputResident/OutputResident report whether the layer's activation
	// input/output stayed in L2 rather than round-tripping DRAM.
	InputResident  bool
	OutputResident bool
	// HeldBytes is L2 capacity pinned by live residual sources while
	// this layer runs.
	HeldBytes int64
	// DRAMReads/DRAMWrites are the layer's off-chip element transfers
	// after residency adjustments.
	DRAMReads, DRAMWrites int64
}

// Schedule is the end-to-end plan.
type Schedule struct {
	Plans       []LayerPlan
	TotalCycles int64
	// DRAMTraffic is the total off-chip elements moved, after residency.
	DRAMTraffic int64
	// DRAMSaved is the traffic residency avoided versus a no-residency
	// schedule.
	DRAMSaved int64
	EnergyPJ  float64
}

// Run schedules every layer of the model in order.
func Run(m models.Model, cfg hw.Config, opt Options) (*Schedule, error) {
	cfg = cfg.Normalize()
	if err := validateEdges(m, opt.Residuals); err != nil {
		return nil, err
	}
	// liveUntil[i] = last layer index that still needs layer i's output
	// beyond the immediate successor.
	liveUntil := map[int]int{}
	for _, e := range opt.Residuals {
		if e.To > liveUntil[e.From] {
			liveUntil[e.From] = e.To
		}
	}

	sched := &Schedule{}
	type resident struct {
		bytes  int64
		until  int   // last layer index that reads the tensor
		savedW int64 // DRAM write elements the producer's retention discounted
	}
	// live holds every activation resident in L2, keyed by producer. A
	// tensor that serves both as the next layer's chain input and as a
	// pinned residual source appears once, so its capacity is charged
	// once — two skip edges off one source likewise share one entry.
	live := map[int]resident{}

	for i, li := range m.Layers {
		layer := li.Layer
		ch, _, err := chooseMapping(layer, cfg, opt)
		if err != nil {
			return nil, fmt.Errorf("layer %s: %w", layer.Name, err)
		}
		df, r := ch.Dataflow, ch.Result

		// L2 pressure: every live tensor — the chain input and pinned
		// residual sources — shrinks what the layer may use for staging
		// and retention, each counted once.
		var residentBytes, heldBytes int64
		for p, ent := range live {
			if ent.until < i {
				delete(live, p)
				continue
			}
			residentBytes += ent.bytes
			if ent.until > i {
				// Held beyond this layer's own read: a residual pin.
				heldBytes += ent.bytes
			}
		}
		avail := opt.L2Bytes - residentBytes
		// fits is decided against the pre-clamp capacity: residency is
		// only real when the staging tiles fit beside everything live.
		fits := avail >= r.L2ReqBytes()
		if opt.L2Bytes > 0 {
			if !fits {
				// Resident activations crowd out the staging tiles: every
				// live source spills — paying the DRAM write its producer's
				// retention discounted — and consumers re-fetch it from
				// DRAM (the paper's "extra global buffer / DRAM accesses").
				// Eviction frees the whole budget for staging.
				for p, ent := range live {
					pp := &sched.Plans[p]
					pp.OutputResident = false
					pp.DRAMWrites += ent.savedW
					n := int64(m.Layers[p].Count)
					sched.DRAMTraffic += ent.savedW * n
					sched.DRAMSaved -= ent.savedW * n
					sched.EnergyPJ += float64(ent.savedW*n) * 200
					delete(live, p)
				}
				heldBytes = 0
				avail = opt.L2Bytes
				if avail < r.L2ReqBytes() {
					// The budget cannot even hold the staging tiles; the
					// layer still needs them to run.
					avail = r.L2ReqBytes()
				}
			}
			r = r.WithL2(avail)
		}

		plan := LayerPlan{
			Inst: li, Dataflow: df, Result: r,
			HeldBytes:  heldBytes,
			DRAMReads:  r.DRAMReads,
			DRAMWrites: r.DRAMWrites,
		}
		inBytes := scaled(layer, tensor.Input, cfg)
		outBytes := scaled(layer, tensor.Output, cfg)

		// Input residency: the previous layer's output feeds this layer
		// from L2 when it was kept (its bytes are already reserved in
		// residentBytes) and the staging tiles still fit beside it. A
		// crowded layer (fits == false) evicted everything above, so its
		// input always re-fetches.
		if _, ok := live[i-1]; ok && fits {
			plan.InputResident = true
			saved := min(plan.DRAMReads, inBytes/int64(cfg.ElemBytes))
			plan.DRAMReads -= saved
			sched.DRAMSaved += saved
		}
		// Output residency: keep this output for the next layer when it
		// fits beside the staging tiles and everything still live.
		if opt.L2Bytes > 0 && outBytes <= avail-r.L2ReqBytes() {
			plan.OutputResident = true
			saved := min(plan.DRAMWrites, outBytes/int64(cfg.ElemBytes))
			plan.DRAMWrites -= saved
			sched.DRAMSaved += saved
			// The kept output serves the next layer, and any residual
			// consumers beyond it; one entry covers all of them. A
			// source that cannot stay resident costs a DRAM write now
			// and a read at each consumer (the default accounting).
			until := i + 1
			if lu, ok := liveUntil[i]; ok && lu > until {
				until = lu
			}
			live[i] = resident{bytes: outBytes, until: until, savedW: saved}
		}

		n := int64(li.Count)
		sched.Plans = append(sched.Plans, plan)
		sched.TotalCycles += r.OnChipRuntime * n
		sched.DRAMTraffic += (plan.DRAMReads + plan.DRAMWrites) * n
		// Price the layer with its DRAM term replaced by the
		// residency-adjusted traffic.
		eb := r.EnergyDefault()
		perInst := eb.OnChip() + float64(plan.DRAMReads+plan.DRAMWrites)*200
		sched.EnergyPJ += perInst * float64(n)
	}
	// The DRAM link bounds the end-to-end runtime too.
	dramDelay := int64(float64(sched.DRAMTraffic)/cfg.OffchipBandwidth + 0.999999)
	if dramDelay > sched.TotalCycles {
		sched.TotalCycles = dramDelay
	}
	return sched, nil
}

// chooseMapping returns the layer's mapping: the schedule's fixed
// dataflow, or the tuner's best pick with no staging cap. A tuned layer
// also returns its front, from which the fused scheduler takes its
// staging-capped mappings; a fixed one returns a nil front.
func chooseMapping(layer tensor.Layer, cfg hw.Config, opt Options) (tuner.Choice, tuner.Front, error) {
	if opt.Dataflow != nil {
		if df, ok := opt.Dataflow(layer); ok {
			// Through the shared profile cache, as the tuner branch
			// below: sweeps re-schedule the same layers many times.
			r, err := core.AnalyzeDataflowCached(df, layer, cfg)
			return tuner.Choice{Dataflow: df, Result: r}, nil, err
		}
		// No mapping for this layer: fall through to the tuner so a
		// partially annotated network still schedules.
	}
	front := tuner.LayerFront(context.TODO(), layer, cfg, opt.Objective)
	ch, ok := front.Best(0)
	if !ok {
		return tuner.Choice{}, nil, fmt.Errorf("no candidate dataflow maps the layer")
	}
	return ch, front, nil
}

func validateEdges(m models.Model, edges []Edge) error {
	for _, e := range edges {
		if e.From < 0 || e.To >= len(m.Layers) || e.To <= e.From+1 {
			return fmt.Errorf("netsched: residual edge %d->%d invalid (need From < To-1 within %d layers)",
				e.From, e.To, len(m.Layers))
		}
	}
	return nil
}

// scaled returns tensor k's size in bytes, density-scaled.
func scaled(layer tensor.Layer, k tensor.Kind, cfg hw.Config) int64 {
	d := layer.Density[k]
	if d == 0 {
		d = 1
	}
	return int64(float64(layer.TensorSize(k))*d+0.5) * int64(cfg.ElemBytes)
}
