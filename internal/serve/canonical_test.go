package serve

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// The oracle: the fmt-built text encodings the binary keys replaced,
// kept verbatim (unhashed) so the differential test below can check
// that the binary keys split requests into exactly the same classes.

func oracleLayer(b *strings.Builder, l tensor.Layer) {
	fmt.Fprintf(b, "layer|%s|op=%s|", l.Name, l.Op)
	for _, d := range tensor.AllDims() {
		fmt.Fprintf(b, "%s=%d,", d, l.Sizes.Get(d))
	}
	fmt.Fprintf(b, "|sy=%d|sx=%d|den=%g,%g,%g\n",
		l.StrideY, l.StrideX,
		l.Density[tensor.Input], l.Density[tensor.Weight], l.Density[tensor.Output])
}

func oracleHW(b *strings.Builder, cfg hw.Config) {
	fmt.Fprintf(b, "hw|pes=%d|vw=%d|l1=%d|l2=%d|off=%g|eb=%d|clk=%g|sparse=%t|",
		cfg.NumPEs, cfg.VectorWidth, cfg.L1Size, cfg.L2Size,
		cfg.OffchipBandwidth, cfg.ElemBytes, cfg.ClockGHz, cfg.SparseImbalance)
	for _, m := range cfg.NoCs {
		fmt.Fprintf(b, "noc:bw=%g,lat=%d,mc=%t,red=%t,ch=%d;",
			m.Bandwidth, m.AvgLatency, m.Multicast, m.Reduction, m.Channels)
	}
	b.WriteByte('\n')
}

func oracleKey(r resolved) string {
	var b strings.Builder
	oracleLayer(&b, r.layer)
	aug := dataflow.Augment(r.df, r.layer)
	fmt.Fprintf(&b, "dataflow|%s|\n%s", aug.Name, aug.String())
	oracleHW(&b, r.cfg)
	return b.String()
}

func oracleProfileKey(df dataflow.Dataflow, layer tensor.Layer, numPEs int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile|pes=%d\nlayer|%s|op=%s|", numPEs, layer.Name, layer.Op)
	for _, d := range tensor.AllDims() {
		fmt.Fprintf(&b, "%s=%d,", d, layer.Sizes.Get(d))
	}
	fmt.Fprintf(&b, "|sy=%d|sx=%d|den=%g,%g,%g\n",
		layer.StrideY, layer.StrideX,
		layer.Density[tensor.Input], layer.Density[tensor.Weight], layer.Density[tensor.Output])
	aug := dataflow.Augment(df, layer)
	fmt.Fprintf(&b, "dataflow|%s|\n%s", aug.Name, aug.String())
	return b.String()
}

func oracleDSEKey(layer tensor.Layer, req DSERequest) string {
	var b strings.Builder
	b.WriteString("dse\n")
	oracleLayer(&b, layer)
	fmt.Fprintf(&b, "tmpl=%s|p1=%v|p2=%v|pes=%v|bws=%v|l1=%v|l2=%v|area=%g|power=%g|topk=%d\n",
		req.Template, req.P1, req.P2, req.PEs, req.BWs,
		req.L1Grid, req.L2Grid, req.AreaBudgetMM2, req.PowerBudgetMW, req.TopK)
	if sh := req.Shard; sh != nil {
		fmt.Fprintf(&b, "shard|%d/%d|pe=[%d,%d]|maps=%v\n",
			sh.Index, sh.Of, sh.PEMin, sh.PEMax, sh.Mappings)
	}
	return b.String()
}

func oracleRouteKey(layer tensor.Layer, template string, pes []int) string {
	var b strings.Builder
	b.WriteString("route\n")
	oracleLayer(&b, layer)
	fmt.Fprintf(&b, "tmpl=%s|pes=%v\n", template, pes)
	return b.String()
}

func oracleFusionKey(cfg hw.Config, req FusionRequest) string {
	var b strings.Builder
	b.WriteString("fusion\n")
	fmt.Fprintf(&b, "model=%s|df=%s|l2=%v|mgl=%v\n",
		req.Model, req.Dataflow, req.L2Grid, req.MaxGroupLayers)
	if sh := req.Shard; sh != nil {
		fmt.Fprintf(&b, "shard|%d/%d\n", sh.Index, sh.Of)
	}
	oracleHW(&b, cfg)
	return b.String()
}

// classes accumulates (oracle, key) pairs and checks that equality of
// one holds exactly when equality of the other does.
type classes[K comparable] struct {
	t        *testing.T
	what     string
	oldToNew map[string]K
	newToOld map[K]string
	label    map[string]string
	n        int
}

func newClasses[K comparable](t *testing.T, what string) *classes[K] {
	return &classes[K]{t: t, what: what,
		oldToNew: map[string]K{}, newToOld: map[K]string{}, label: map[string]string{}}
}

func (c *classes[K]) add(label, old string, key K) {
	c.t.Helper()
	c.n++
	if k, ok := c.oldToNew[old]; ok && k != key {
		c.t.Fatalf("%s: %s and %s share the old key but not the new one", c.what, c.label[old], label)
	}
	if o, ok := c.newToOld[key]; ok && o != old {
		c.t.Fatalf("%s: %s and %s share the new key but not the old one", c.what, c.label[o], label)
	}
	c.oldToNew[old], c.newToOld[key] = key, old
	if _, ok := c.label[old]; !ok {
		c.label[old] = label
	}
}

// respellings returns DSL spellings of a Table 3 dataflow that must all
// key like the named form: inline source, whitespace and comments, and
// the explicit (augmented) maps for the layer; plus spellings that must
// not: a renamed copy, a changed tile size and a changed spatial offset.
func respellings(name string, layer tensor.Layer) []DataflowSpec {
	src := dataflows.Sources[name]
	spaced := "/* respelled */\n" + strings.ReplaceAll(src, ";", " ; // end\n\t")
	explicit := dataflow.Augment(dataflows.Get(name), layer).String()
	retiled := strings.Replace(src, "1,1)", "2,2)", 1)
	reoffset := strings.Replace(src, "SpatialMap(1,1)", "SpatialMap(1,2)", 1)
	return []DataflowSpec{
		{Name: name},
		{Name: name, DSL: src},
		{Name: name, DSL: spaced},
		{Name: name, DSL: explicit},
		{Name: "custom-" + name, DSL: src},
		{Name: name, DSL: retiled},
		{Name: name, DSL: reoffset},
	}
}

// TestCanonicalKeysMatchOracle is the differential check of the binary
// encoder against the text encoding it replaced, over Table 3 × every
// zoo layer × the hardware presets, plus respelled DSL variants on a
// sample of layers. Named and inline spellings of one mapping must
// still collide, and nothing else may.
func TestCanonicalKeysMatchOracle(t *testing.T) {
	analyze := newClasses[Key](t, "analyze key")
	profile := newClasses[core.ProfileKey](t, "profile key")
	add := func(label string, req AnalyzeRequest, edit func(*resolved)) {
		t.Helper()
		r, err := resolveRequest(req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if edit != nil {
			edit(&r)
		}
		aug := dataflow.Augment(r.df, r.layer)
		analyze.add(label, oracleKey(r), canonicalKey(r, aug))
		profile.add(label, oracleProfileKey(r.df, r.layer, r.cfg.NumPEs),
			core.ProfileKeyFor(aug, r.layer, r.cfg.NumPEs))
	}

	hws := []HWSpec{
		{Preset: "Accel256"}, {Preset: "MAERI64"}, {Preset: "Eyeriss168"},
		{Preset: "Accel256", NumPEs: 128},
		{Preset: "Accel256", NoCs: []NoCSpec{{Kind: "mesh", Bandwidth: 16}}},
	}
	n := 0
	for _, model := range models.Zoo() {
		m, _ := models.ByName(model)
		for _, li := range m.Layers {
			ls := LayerSpec{Model: model, Name: li.Layer.Name}
			for _, df := range dataflows.Names {
				for _, h := range hws[:3] {
					add(fmt.Sprintf("%s/%s/%s/%s", model, ls.Name, df, h.Preset),
						AnalyzeRequest{Layer: ls, Dataflow: DataflowSpec{Name: df}, HW: h}, nil)
				}
			}
			if n++; n%9 != 0 {
				continue
			}
			for _, df := range dataflows.Names {
				for si, spec := range respellings(df, li.Layer) {
					for hi, h := range hws {
						add(fmt.Sprintf("%s/%s/%s spelling %d hw %d", model, ls.Name, df, si, hi),
							AnalyzeRequest{Layer: ls, Dataflow: spec, HW: h}, nil)
					}
				}
			}
		}
	}

	// Inline layers: densities and strides, and presentation-only names.
	inline := LayerSpec{Name: "inline", K: 64, C: 32, Y: 30, X: 30, R: 3, S: 3}
	for i, ls := range []LayerSpec{
		inline,
		{Name: "inline", K: 64, C: 32, Y: 30, X: 30, R: 3, S: 3, StrideY: 1, StrideX: 1},
		{Name: "inline", K: 64, C: 32, Y: 30, X: 30, R: 3, S: 3, InputDensity: 1},
		{Name: "inline", K: 64, C: 32, Y: 30, X: 30, R: 3, S: 3, InputDensity: 0.5},
		{Name: "inline", K: 64, C: 32, Y: 30, X: 30, R: 3, S: 3, WeightDensity: 0.5},
		{Name: "inline", K: 64, C: 32, Y: 31, X: 31, R: 3, S: 3, StrideY: 2, StrideX: 2},
		{Name: "inline2", K: 64, C: 32, Y: 30, X: 30, R: 3, S: 3},
		{Name: "inline", Op: "DWCONV", C: 32, Y: 30, X: 30, R: 3, S: 3},
	} {
		for _, df := range dataflows.Names {
			add(fmt.Sprintf("inline %d/%s", i, df),
				AnalyzeRequest{Layer: ls, Dataflow: DataflowSpec{Name: df}, HW: HWSpec{Preset: "Accel256"}}, nil)
		}
	}
	base := AnalyzeRequest{Layer: inline, Dataflow: DataflowSpec{Name: "KC-P"}, HW: HWSpec{Preset: "Accel256"}}
	add("renamed hw", base, func(r *resolved) { r.cfg.Name = "elsewhere" })
	add("renamed noc", base, func(r *resolved) { r.cfg.NoCs[0].Name = "elsewhere" })
	add("retuned noc", base, func(r *resolved) { r.cfg.NoCs[0].AvgLatency++ })
	t.Logf("%d requests in %d analyze classes, %d profile classes",
		analyze.n, len(analyze.newToOld), len(profile.newToOld))
}

// TestSweepKeysMatchOracle is the differential check for the DSE,
// route and fusion keys: each request field perturbed alone, and the
// spellings the old text encoding could not tell apart (nil vs empty
// axes) still colliding.
func TestSweepKeysMatchOracle(t *testing.T) {
	layer, err := resolveLayer(LayerSpec{Model: "VGG16", Name: "CONV11"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := resolveLayer(LayerSpec{Model: "VGG16", Name: "CONV2"})
	if err != nil {
		t.Fatal(err)
	}

	dseBase := DSERequest{Template: "KC-P", P1: []int{16}, P2: []int{8}, PEs: []int{64, 128},
		BWs: []float64{16}, L1Grid: []int64{64}, L2Grid: []int64{1 << 14}}
	dse := newClasses[Key](t, "dse key")
	for i, edit := range []func(*DSERequest){
		func(*DSERequest) {},
		func(r *DSERequest) { r.P1 = []int{16} },
		func(r *DSERequest) { r.P1 = nil },
		func(r *DSERequest) { r.P1 = []int{} },
		func(r *DSERequest) { r.P1 = []int{32} },
		func(r *DSERequest) { r.P2 = []int{8, 4} },
		func(r *DSERequest) { r.PEs = []int{64} },
		func(r *DSERequest) { r.BWs = []float64{16.5} },
		func(r *DSERequest) { r.BWs = nil },
		func(r *DSERequest) { r.L1Grid = []int64{128} },
		func(r *DSERequest) { r.L2Grid = []int64{1 << 15} },
		func(r *DSERequest) { r.Template = "YR-P" },
		func(r *DSERequest) { r.AreaBudgetMM2 = 16 },
		func(r *DSERequest) { r.PowerBudgetMW = 450 },
		func(r *DSERequest) { r.TopK = 8 },
		func(r *DSERequest) { r.TimeoutMs, r.NoCache = 5, true }, // delivery-only
		func(r *DSERequest) { r.Shard = &DSEShard{} },
		func(r *DSERequest) { r.Shard = &DSEShard{Index: 1, Of: 2} },
		func(r *DSERequest) { r.Shard = &DSEShard{Index: 1, Of: 2, PEMin: 64} },
		func(r *DSERequest) { r.Shard = &DSEShard{Index: 1, Of: 2, PEMax: 128} },
		func(r *DSERequest) { r.Shard = &DSEShard{Mappings: []string{"KC-P"}} },
		func(r *DSERequest) { r.Shard = &DSEShard{Mappings: []string{}} },
	} {
		for li, l := range []tensor.Layer{layer, other} {
			req := dseBase
			edit(&req)
			dse.add(fmt.Sprintf("dse edit %d layer %d", i, li), oracleDSEKey(l, req), canonicalDSEKey(l, req))
		}
	}

	route := newClasses[Key](t, "route key")
	for _, l := range []tensor.Layer{layer, other} {
		for _, tmpl := range []string{"KC-P", "YR-P", "YX-P"} {
			for pi, pes := range [][]int{nil, {}, {64}, {128}, {64, 128}, {128, 64}} {
				route.add(fmt.Sprintf("route %s/%s/%d", l.Name, tmpl, pi),
					oracleRouteKey(l, tmpl, pes), DSERouteKey(l, tmpl, pes))
			}
		}
	}

	fusion := newClasses[Key](t, "fusion key")
	for _, h := range []HWSpec{{Preset: "Accel256"}, {Preset: "Eyeriss168"}, {Preset: "Accel256", L2Bytes: 1 << 20}} {
		cfg, err := resolveHW(h)
		if err != nil {
			t.Fatal(err)
		}
		for i, req := range []FusionRequest{
			{Model: "AlexNet"},
			{Model: "AlexNet", Dataflow: "KC-P"},
			{Model: "VGG16"},
			{Model: "AlexNet", L2Grid: []int64{0, 1 << 16}},
			{Model: "AlexNet", L2Grid: []int64{}},
			{Model: "AlexNet", MaxGroupLayers: []int{1, 2}},
			{Model: "AlexNet", Shard: &FusionShard{}},
			{Model: "AlexNet", Shard: &FusionShard{Index: 1, Of: 2}},
		} {
			fusion.add(fmt.Sprintf("fusion %s/%d", h.Preset, i), oracleFusionKey(cfg, req), canonicalFusionKey(cfg, req))
		}
	}
}
