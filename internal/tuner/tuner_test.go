package tuner

import (
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

func layer(k, c, out, r, stride int) tensor.Layer {
	in := (out-1)*stride + r
	return tensor.Layer{
		Name: "t", Op: tensor.Conv2D,
		Sizes:   tensor.Sizes{tensor.N: 1, tensor.K: k, tensor.C: c, tensor.Y: in, tensor.X: in, tensor.R: r, tensor.S: r},
		StrideY: stride, StrideX: stride,
	}.Normalize()
}

func TestTuneLayerBeatsFixed(t *testing.T) {
	l := layer(64, 64, 28, 3, 1)
	cfg := hw.Accel256()
	best, err := TuneLayerCtx(context.Background(), l, cfg, Options{Objective: MinRuntime})
	if err != nil {
		t.Fatal(err)
	}
	if err := best.Result.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	// The tuned mapping must be at least as good as every fixed Table 3
	// dataflow (they are in the candidate set).
	for _, df := range dataflows.All() {
		r, err := core.AnalyzeDataflow(df, l, cfg)
		if err != nil {
			continue
		}
		if best.Result.Runtime > r.Runtime {
			t.Errorf("tuned %s (%d cyc) slower than fixed %s (%d cyc)",
				best.Dataflow.Name, best.Result.Runtime, df.Name, r.Runtime)
		}
	}
}

func TestObjectives(t *testing.T) {
	l := layer(32, 32, 28, 3, 1)
	cfg := hw.Accel256()
	rt, err := TuneLayerCtx(context.Background(), l, cfg, Options{Objective: MinRuntime})
	if err != nil {
		t.Fatal(err)
	}
	en, err := TuneLayerCtx(context.Background(), l, cfg, Options{Objective: MinEnergy})
	if err != nil {
		t.Fatal(err)
	}
	edp, err := TuneLayerCtx(context.Background(), l, cfg, Options{Objective: MinEDP})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Result.Runtime > en.Result.Runtime {
		t.Errorf("runtime objective (%d) lost to energy objective (%d) on runtime",
			rt.Result.Runtime, en.Result.Runtime)
	}
	if en.Result.EnergyDefault().OnChip() > rt.Result.EnergyDefault().OnChip()+1 {
		t.Errorf("energy objective worse than runtime objective on energy")
	}
	if edp.Score > edpOf(rt)+1e-6 || edp.Score > edpOf(en)+1e-6 {
		t.Errorf("EDP objective (%g) worse than another objective's pick (%g, %g)",
			edp.Score, edpOf(rt), edpOf(en))
	}
}

func edpOf(c Choice) float64 {
	return c.Result.EnergyDefault().OnChip() * float64(c.Result.Runtime)
}

// TestTuneLayerConfigsMatchesScalar pins the batched hardware sweep to
// the scalar tuner: for each configuration — including ones with
// different PE counts, which batch in separate profile groups — the
// chosen dataflow and score must equal an independent TuneLayer run.
func TestTuneLayerConfigsMatchesScalar(t *testing.T) {
	l := layer(32, 32, 14, 3, 1)
	cfgs := []hw.Config{hw.Accel256(), hw.MAERI64(), hw.Accel256()}
	cfgs[2].VectorWidth = 4
	opt := Options{Objective: MinEDP}

	choices, err := TuneLayerConfigsCtx(context.Background(), l, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(choices) != len(cfgs) {
		t.Fatalf("got %d choices for %d configs", len(choices), len(cfgs))
	}
	for i, cfg := range cfgs {
		want, err := TuneLayerCtx(context.Background(), l, cfg, opt)
		if err != nil {
			t.Fatalf("config %d: scalar tune: %v", i, err)
		}
		got := choices[i]
		if got.Dataflow.Name != want.Dataflow.Name || got.Score != want.Score {
			t.Errorf("config %d (%s): batched sweep chose %s (score %g), scalar chose %s (score %g)",
				i, cfg.Name, got.Dataflow.Name, got.Score, want.Dataflow.Name, want.Score)
		}
		if got.Result.Runtime != want.Result.Runtime {
			t.Errorf("config %d: runtime %d vs scalar %d", i, got.Result.Runtime, want.Result.Runtime)
		}
	}
}

func TestTuneLayersTotals(t *testing.T) {
	vgg := models.VGG16()
	var ls []tensor.Layer
	var counts []int
	for _, li := range vgg.Layers[:3] {
		ls = append(ls, li.Layer)
		counts = append(counts, li.Count)
	}
	mr, err := TuneLayersCtx(context.Background(), ls, counts, hw.Accel256(), Options{Objective: MinRuntime})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Choices) != 3 || mr.Runtime <= 0 || mr.EnergyPJ <= 0 {
		t.Fatalf("totals: %+v", mr)
	}
}

func TestCandidateNames(t *testing.T) {
	l := layer(64, 64, 28, 3, 1)
	seen := map[string]bool{}
	for _, df := range candidates(l, 256) {
		if seen[df.Name] {
			t.Errorf("duplicate candidate name %q", df.Name)
		}
		seen[df.Name] = true
	}
	for _, want := range []string{"C-P", "KC-P(c64,x16)", "YR-P(c2,k8)", "YX-P(x8)"} {
		if !seen[want] {
			var names []string
			for n := range seen {
				names = append(names, n)
			}
			t.Errorf("candidate %q missing from %s", want, strings.Join(names, ", "))
		}
	}
}

// tuneCapped is the capped search as one loop per cap: walk the
// candidates in order, skip those that cannot map the layer or stage
// more than opt.MaxL2Bytes, and keep the first lowest score. price
// stands in for the engine so the reference shares nothing with
// fronts beyond the candidate list.
func tuneCapped(layer tensor.Layer, cfg hw.Config, opt Options, price func(int) (*core.Result, error)) (Choice, bool) {
	var best Choice
	found := false
	for i, df := range candidates(layer, cfg.NumPEs) {
		r, err := price(i)
		if err != nil {
			continue
		}
		if opt.MaxL2Bytes > 0 && r.L2ReqBytes() > opt.MaxL2Bytes {
			continue
		}
		s := score(opt.Objective, r)
		if !found || s < best.Score {
			best = Choice{Dataflow: df, Result: r, Score: s}
			found = true
		}
	}
	return best, found
}

// TestFrontBestMatchesCappedTune pins the tune-once front to the
// per-cap search it replaces: on every GoogLeNet layer, under both
// objectives and at every cap the fusion scheduler can ask for (none,
// and 4 KiB·2^k up to 2 GiB) plus each candidate's own staging
// requirement (a cap met exactly), Front.Best picks the same mapping
// with the same score — ties included.
func TestFrontBestMatchesCappedTune(t *testing.T) {
	cfg := hw.Accel256().Normalize()
	caps := []int64{0}
	for c := int64(4 << 10); c <= 2<<30; c *= 2 {
		caps = append(caps, c)
	}
	for _, li := range models.GoogLeNet().Layers {
		l := li.Layer
		cands := candidates(l, cfg.NumPEs)
		type priced struct {
			r   *core.Result
			err error
		}
		memo := make([]priced, len(cands))
		for i, df := range cands {
			r, err := core.AnalyzeDataflow(df, l, cfg)
			memo[i] = priced{r, err}
		}
		price := func(i int) (*core.Result, error) { return memo[i].r, memo[i].err }
		for _, obj := range []Objective{MinRuntime, MinEDP} {
			front := LayerFront(context.Background(), l, cfg, obj)
			exact := append([]int64(nil), caps...)
			seen := map[int64]bool{}
			for _, e := range front {
				if !seen[e.L2ReqBytes] {
					seen[e.L2ReqBytes] = true
					exact = append(exact, e.L2ReqBytes)
				}
			}
			for _, c := range exact {
				got, gotOK := front.Best(c)
				want, wantOK := tuneCapped(l, cfg, Options{Objective: obj, MaxL2Bytes: c}, price)
				if gotOK != wantOK || got.Dataflow.Name != want.Dataflow.Name || got.Score != want.Score {
					t.Errorf("%s %s cap %d: front picked %q (%g, ok %v), capped tune %q (%g, ok %v)",
						l.Name, obj, c, got.Dataflow.Name, got.Score, gotOK, want.Dataflow.Name, want.Score, wantOK)
				}
			}
		}
	}
}
