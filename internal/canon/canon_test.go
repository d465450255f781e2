package canon

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/tensor"
)

// encode is the analyze-key body: layer, augmented dataflow, hardware.
func encode(l tensor.Layer, df dataflow.Dataflow, cfg hw.Config) []byte {
	return AppendHW(AppendDataflow(AppendLayer(nil, l), df), cfg)
}

// otherFloat returns a float64 outside f's equivalence class (all NaNs
// form one class; every other value is its own).
func otherFloat(f float64) float64 {
	if math.IsNaN(f) {
		return 0
	}
	if g := math.Nextafter(f, math.Inf(1)); g != f {
		return g
	}
	return math.Nextafter(f, math.Inf(-1))
}

// perturb changes exactly one canonical field of (l, df, cfg), chosen by
// field, and names it. df and cfg must be the caller's own copies.
func perturb(l tensor.Layer, df dataflow.Dataflow, cfg hw.Config, field uint8, delta int64) (tensor.Layer, dataflow.Dataflow, hw.Config, string) {
	if delta == 0 {
		delta = 1
	}
	d := int(delta)
	// at picks the directive the dataflow fields below perturb.
	at := func() *dataflow.Directive {
		i := int(uint64(delta) % uint64(len(df.Directives)))
		return &df.Directives[i]
	}
	switch field % 36 {
	case 0:
		l.Name += "'"
		return l, df, cfg, "layer name"
	case 1:
		l.Op++
		return l, df, cfg, "layer op"
	case 2, 3, 4, 5, 6, 7, 8:
		l.Sizes[field%36-2] += d
		return l, df, cfg, "layer size"
	case 9:
		l.StrideY += d
		return l, df, cfg, "stride y"
	case 10:
		l.StrideX += d
		return l, df, cfg, "stride x"
	case 11, 12, 13:
		k := field%36 - 11
		l.Density[k] = otherFloat(l.Density[k])
		return l, df, cfg, "density"
	case 14:
		df.Name += "'"
		return l, df, cfg, "dataflow name"
	case 15:
		if dir := at(); dir.IsCluster {
			dir.IsCluster = false
		} else {
			dir.Kind ^= 1
		}
		return l, df, cfg, "directive kind"
	case 16:
		if dir := at(); dir.IsCluster {
			dir.Size.Terms = append(dir.Size.Terms, dataflow.SizeTerm{Dim: tensor.R, Coef: 1})
		} else {
			dir.Dim = (dir.Dim + 1) % tensor.NumDims
		}
		return l, df, cfg, "directive dim"
	case 17:
		at().Size.Const += d
		return l, df, cfg, "size constant"
	case 18:
		if dir := at(); dir.IsCluster {
			dir.Size.Const += d
		} else {
			dir.Offset.Const += d
		}
		return l, df, cfg, "offset constant"
	case 19:
		dir := at()
		if n := len(dir.Size.Terms); n > 0 {
			dir.Size.Terms[n-1].Coef += d
		} else {
			dir.Size.Terms = []dataflow.SizeTerm{{Dim: tensor.S, Coef: d}}
		}
		return l, df, cfg, "size term"
	case 20:
		df.Directives = append(df.Directives, dataflow.TMap(dataflow.Lit(1), dataflow.Lit(1), tensor.K))
		return l, df, cfg, "directive appended"
	case 21:
		df.Directives = df.Directives[:len(df.Directives)-1]
		return l, df, cfg, "directive removed"
	case 22:
		cfg.NumPEs += d
		return l, df, cfg, "pes"
	case 23:
		cfg.VectorWidth += d
		return l, df, cfg, "vector width"
	case 24:
		cfg.L1Size += delta
		return l, df, cfg, "l1"
	case 25:
		cfg.L2Size += delta
		return l, df, cfg, "l2"
	case 26:
		cfg.OffchipBandwidth = otherFloat(cfg.OffchipBandwidth)
		return l, df, cfg, "offchip bandwidth"
	case 27:
		cfg.ElemBytes += d
		return l, df, cfg, "elem bytes"
	case 28:
		cfg.ClockGHz = otherFloat(cfg.ClockGHz)
		return l, df, cfg, "clock"
	case 29:
		cfg.SparseImbalance = !cfg.SparseImbalance
		return l, df, cfg, "sparse imbalance"
	case 30:
		cfg.NoCs[0].Bandwidth = otherFloat(cfg.NoCs[0].Bandwidth)
		return l, df, cfg, "noc bandwidth"
	case 31:
		cfg.NoCs[0].AvgLatency += delta
		return l, df, cfg, "noc latency"
	case 32:
		cfg.NoCs[0].Multicast = !cfg.NoCs[0].Multicast
		return l, df, cfg, "noc multicast"
	case 33:
		cfg.NoCs[0].Reduction = !cfg.NoCs[0].Reduction
		return l, df, cfg, "noc reduction"
	case 34:
		cfg.NoCs[0].Channels += d
		return l, df, cfg, "noc channels"
	default:
		cfg.NoCs = append(cfg.NoCs, noc.Bus(16))
		return l, df, cfg, "noc level appended"
	}
}

// FuzzCanonicalKey checks the encoder's two halves of injectivity on
// arbitrary layers: perturbing any one canonical field changes the
// encoded bytes, and changing only a presentation name or the unused
// fields of a Cluster directive does not.
func FuzzCanonicalKey(f *testing.F) {
	f.Add("CONV1", uint8(0), 64, 3, 226, 3, 1, 1.0, uint8(4), uint8(0), int64(1))
	f.Add("fc", uint8(3), 1000, 4096, 1, 1, 1, 0.5, uint8(2), uint8(19), int64(-7))
	f.Add("", uint8(6), 0, -1, 0, 0, 0, math.NaN(), uint8(3), uint8(15), int64(0))
	f.Add("x", uint8(1), 1<<40, 2, 3, 4, -2, math.Inf(-1), uint8(1), uint8(35), int64(math.MinInt64))
	// Every field, at every directive position of every Table 3
	// dataflow, so a plain test run already covers the whole encoding.
	for field := 0; field < 36; field++ {
		for delta := 1; delta <= 24; delta++ {
			f.Add("CONV2", uint8(0), 128, 64, 114, 3, 1, 1.0, uint8(delta), uint8(field), int64(delta))
		}
	}
	f.Fuzz(func(t *testing.T, name string, op uint8, k, c, y, r, stride int, density float64,
		dfIdx, field uint8, delta int64) {
		l := tensor.Layer{
			Name: name, Op: tensor.OpType(op),
			Sizes:   tensor.Sizes{tensor.N: 1, tensor.K: k, tensor.C: c, tensor.Y: y, tensor.X: y, tensor.R: r, tensor.S: r},
			StrideY: stride, StrideX: stride,
			Density: [tensor.NumKinds]float64{density, 1, density},
		}
		df := dataflow.Augment(dataflows.Get(dataflows.Names[int(dfIdx)%len(dataflows.Names)]), l)
		cfg := hw.Accel256()
		base := encode(l, df, cfg)
		if !bytes.Equal(base, encode(l, df.Clone(), cfg)) {
			t.Fatal("encoding is not deterministic")
		}

		pl, pdf, pcfg, what := perturb(l, df.Clone(), hw.Accel256(), field, delta)
		if bytes.Equal(base, encode(pl, pdf, pcfg)) {
			t.Fatalf("perturbing the %s left the encoding unchanged", what)
		}

		renamed := hw.Accel256()
		renamed.Name += "'"
		renamed.NoCs[0].Name += "'"
		odd := df.Clone()
		for i := range odd.Directives {
			if odd.Directives[i].IsCluster {
				odd.Directives[i].Kind, odd.Directives[i].Dim = dataflow.Spatial, tensor.S
				odd.Directives[i].Offset = dataflow.Lit(int(delta))
			}
		}
		if !bytes.Equal(base, encode(l, odd, renamed)) {
			t.Fatal("a presentation name or an unused Cluster field changed the encoding")
		}
	})
}

// TestAppendFloatClasses pins the float classes: every NaN encodes
// alike, and the signed zeros stay apart.
func TestAppendFloatClasses(t *testing.T) {
	quiet, payload := math.NaN(), math.Float64frombits(0x7ff8_dead_beef_0001)
	if !bytes.Equal(AppendFloat(nil, quiet), AppendFloat(nil, payload)) {
		t.Error("NaN payloads encode differently")
	}
	if bytes.Equal(AppendFloat(nil, 0), AppendFloat(nil, math.Copysign(0, -1))) {
		t.Error("+0 and -0 encode alike")
	}
}

// TestAppendStringFraming checks that length prefixes keep adjacent
// strings apart: ("ab","c") and ("a","bc") must not collide.
func TestAppendStringFraming(t *testing.T) {
	a := AppendString(AppendString(nil, "ab"), "c")
	b := AppendString(AppendString(nil, "a"), "bc")
	if bytes.Equal(a, b) {
		t.Error("adjacent strings bleed into each other")
	}
}
