// Package tuner implements the dataflow auto-tuner the paper names as
// future work (Section 7): given a layer and a hardware configuration,
// it searches across the dataflow styles of Table 3 *and* their tile-size
// knobs, and returns the mapping that minimizes runtime, energy, or
// energy-delay product. Combined across layers this subsumes the
// adaptive-dataflow study of Section 5.1 (which picks among fixed
// mappings only).
package tuner

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Objective selects the metric the tuner minimizes.
type Objective uint8

// Objectives.
const (
	MinRuntime Objective = iota
	MinEnergy
	MinEDP
)

// String returns the objective name.
func (o Objective) String() string {
	switch o {
	case MinRuntime:
		return "runtime"
	case MinEnergy:
		return "energy"
	case MinEDP:
		return "edp"
	}
	return fmt.Sprintf("Objective(%d)", uint8(o))
}

// Choice is one tuned mapping.
type Choice struct {
	Dataflow dataflow.Dataflow
	Result   *core.Result
	Score    float64
}

// Options configures the search.
type Options struct {
	Objective Objective
	// MaxL2Bytes, when positive, drops candidates whose L2 staging
	// requirement exceeds it. The graph-level fusion scheduler uses this
	// to reserve scratchpad for inter-layer band windows.
	MaxL2Bytes int64
}

// score evaluates the objective on a result.
func score(o Objective, r *core.Result) float64 {
	switch o {
	case MinEnergy:
		return r.EnergyDefault().OnChip()
	case MinEDP:
		return r.EnergyDefault().OnChip() * float64(r.Runtime)
	default:
		return float64(r.Runtime)
	}
}

// candidates generates the mapping search space for a layer: the five
// Table 3 styles plus tile-size variants of the parameterized templates,
// scaled to the layer's dimensions and the PE count.
func candidates(layer tensor.Layer, numPEs int) []dataflow.Dataflow {
	var out []dataflow.Dataflow
	for _, df := range dataflows.All() {
		out = append(out, df)
	}
	c := layer.Sizes.Get(tensor.C)
	k := layer.Sizes.Get(tensor.K)
	for _, cluster := range pow2Upto(min(numPEs, 128)) {
		if cluster < 2 || numPEs%cluster != 0 {
			continue
		}
		for _, ct := range pow2Upto(c) {
			if ct < cluster {
				continue
			}
			df := dataflows.KCPSized(ct, cluster)
			df.Name = fmt.Sprintf("KC-P(c%d,x%d)", ct, cluster)
			out = append(out, df)
		}
	}
	for _, ct := range pow2Upto(min(c, 32)) {
		for _, kt := range pow2Upto(min(k, 32)) {
			df := dataflows.YRPSized(ct, kt)
			df.Name = fmt.Sprintf("YR-P(c%d,k%d)", ct, kt)
			out = append(out, df)
		}
	}
	for _, xt := range []int{2, 4, 8, 16, 32} {
		if xt > layer.OutX() {
			break
		}
		df := dataflows.YXPSized(xt)
		df.Name = fmt.Sprintf("YX-P(x%d)", xt)
		out = append(out, df)
	}
	return out
}

// pow2Upto returns the powers of two up to n inclusive.
func pow2Upto(n int) []int {
	var out []int
	for v := 1; v <= n; v *= 2 {
		out = append(out, v)
	}
	return out
}

// Entry is one priced candidate of a layer's Front.
type Entry struct {
	Choice
	// L2ReqBytes is the candidate's L2 staging requirement.
	L2ReqBytes int64
}

// Front is a layer's candidate mappings priced once under one hardware
// configuration, in candidate order; candidates that cannot map the
// layer are absent. The candidate list and every price are independent
// of any L2 cap, so one front answers a capped tune at every cap.
type Front []Entry

// Best returns the first lowest-score entry whose L2 staging
// requirement is at most maxL2 (maxL2 <= 0: no cap). ok is false when
// no entry fits.
func (f Front) Best(maxL2 int64) (best Choice, ok bool) {
	for _, e := range f {
		if maxL2 > 0 && e.L2ReqBytes > maxL2 {
			continue
		}
		if !ok || e.Score < best.Score {
			best, ok = e.Choice, true
		}
	}
	return best, ok
}

// fronts prices every candidate mapping of layer under each of cfgs,
// which are normalized and share one PE count: each candidate is
// profiled once, through the shared profile cache, and priced across
// all of cfgs in a single PriceBatch walk (a plain Price for one
// configuration). fs[i] is the front under cfgs[i]; priced counts the
// candidates that mapped the layer.
func fronts(ctx context.Context, layer tensor.Layer, cfgs []hw.Config, obj Objective) (fs []Front, priced int) {
	fs = make([]Front, len(cfgs))
	pes := cfgs[0].NumPEs
	for _, df := range candidates(layer, pes) {
		// The profile cache persists across layers and hardware variants:
		// re-tuning the same layer under a different NoC or vector width
		// re-prices cached profiles instead of re-running the walk.
		p, _, err := core.DefaultProfileCache.ProfileDataflowCtx(ctx, df, layer, pes)
		if err != nil { // candidate cannot map the layer
			continue
		}
		priced++
		var rs []*core.Result
		if len(cfgs) == 1 {
			r, _ := p.PriceCtx(ctx, cfgs[0])
			rs = []*core.Result{r}
		} else {
			rs, _ = p.PriceBatchCtx(ctx, cfgs)
		}
		for i, r := range rs {
			if r != nil {
				fs[i] = append(fs[i], Entry{
					Choice:     Choice{Dataflow: df, Result: r, Score: score(obj, r)},
					L2ReqBytes: r.L2ReqBytes(),
				})
			}
		}
	}
	return fs, priced
}

// LayerFront prices every candidate mapping of layer once under cfg.
// TuneLayerCtx at any MaxL2Bytes is LayerFront(...).Best(MaxL2Bytes).
func LayerFront(ctx context.Context, layer tensor.Layer, cfg hw.Config, obj Objective) Front {
	fs, _ := fronts(ctx, layer, []hw.Config{cfg.Normalize()}, obj)
	return fs[0]
}

// TuneLayerCtx returns the best mapping of the candidate space for one
// layer, traced under ctx's obs recorder: the whole search runs in a
// "tuner.layer" span, with each candidate's profile fetch and pricing
// visible as child spans (profiles that ride the shared cache appear as
// hit events instead of walks). Candidates that cannot map the layer
// are skipped; an error is returned only if none can.
func TuneLayerCtx(ctx context.Context, layer tensor.Layer, cfg hw.Config, opt Options) (Choice, error) {
	cfg = cfg.Normalize()
	ctx, span := obs.Start(ctx, "tuner.layer",
		obs.String("layer", layer.Name),
		obs.String("objective", opt.Objective.String()),
		obs.Int("pes", cfg.NumPEs))
	defer span.End()
	front := LayerFront(ctx, layer, cfg, opt.Objective)
	span.SetAttr(obs.Int("evaluated", len(front)))
	best, ok := front.Best(opt.MaxL2Bytes)
	if !ok {
		return Choice{}, fmt.Errorf("tuner: no candidate dataflow maps layer %s", layer.Name)
	}
	span.SetAttr(obs.String("best", best.Dataflow.Name))
	return best, nil
}

// TuneLayerConfigsCtx tunes one layer under several hardware variants
// at once, returning the best mapping per configuration (choices[i]
// pairs with cfgs[i]). Every candidate dataflow is profiled once per PE
// count and priced across all configurations sharing that PE count in
// a single PriceBatch walk, so an N-variant sweep costs one cluster
// walk plus N cheap pricings per candidate instead of N full analyses.
// An error is returned only if some configuration has no candidate
// that maps the layer.
func TuneLayerConfigsCtx(ctx context.Context, layer tensor.Layer, cfgs []hw.Config, opt Options) ([]Choice, error) {
	ctx, span := obs.Start(ctx, "tuner.layer_configs",
		obs.String("layer", layer.Name),
		obs.String("objective", opt.Objective.String()),
		obs.Int("configs", len(cfgs)))
	defer span.End()

	// Candidates and profiles depend on the PE count only, so configs
	// sharing one batch together per candidate.
	byPEs := map[int][]int{}
	norm := make([]hw.Config, len(cfgs))
	for i, cfg := range cfgs {
		norm[i] = cfg.Normalize()
		byPEs[norm[i].NumPEs] = append(byPEs[norm[i].NumPEs], i)
	}
	choices := make([]Choice, len(cfgs))
	evaluated := 0
	for _, lanes := range byPEs {
		batch := make([]hw.Config, len(lanes))
		for j, i := range lanes {
			batch[j] = norm[i]
		}
		fs, priced := fronts(ctx, layer, batch, opt.Objective)
		evaluated += priced
		for j, i := range lanes {
			choices[i], _ = fs[j].Best(opt.MaxL2Bytes)
		}
	}
	span.SetAttr(obs.Int("evaluated", evaluated))
	for i, ch := range choices {
		if ch.Result == nil {
			return nil, fmt.Errorf("tuner: no candidate dataflow maps layer %s for config %d (%q)",
				layer.Name, i, cfgs[i].Name)
		}
	}
	return choices, nil
}

// ModelResult summarizes a tuned model.
type ModelResult struct {
	Choices []Choice
	// Runtime and EnergyPJ are totals across the tuned layers (weighted
	// by each layer's repetition count where the caller supplies one).
	Runtime  int64
	EnergyPJ float64
}

// TuneLayersCtx tunes a list of (layer, count) pairs and accumulates
// totals, tracing each layer under ctx.
func TuneLayersCtx(ctx context.Context, layers []tensor.Layer, counts []int, cfg hw.Config, opt Options) (ModelResult, error) {
	var mr ModelResult
	for i, l := range layers {
		ch, err := TuneLayerCtx(ctx, l, cfg, opt)
		if err != nil {
			return mr, err
		}
		n := 1
		if counts != nil {
			n = counts[i]
		}
		mr.Choices = append(mr.Choices, ch)
		mr.Runtime += ch.Result.Runtime * int64(n)
		mr.EnergyPJ += ch.Result.EnergyDefault().OnChip() * float64(n)
	}
	return mr, nil
}
