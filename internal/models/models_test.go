package models

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/tensor"
)

// TestModelMACTotals pins the zoo's compute against the published
// figures (multiply-accumulates, so half the usual FLOP numbers).
func TestModelMACTotals(t *testing.T) {
	cases := []struct {
		model   Model
		loGMacs float64
		hiGMacs float64
	}{
		{VGG16(), 15.0, 16.0},       // ~15.5 GMACs
		{AlexNet(), 0.6, 1.2},       // ~0.7 GMACs (dense variant)
		{ResNet50(), 3.4, 4.6},      // ~4 GMACs
		{ResNeXt50(), 3.4, 5.0},     // ~4.2 GMACs
		{MobileNetV2(), 0.25, 0.45}, // ~0.3 GMACs
		{UNet(), 100.0, 220.0},      // ~167 GMACs at 572x572 (unpadded)
	}
	for _, c := range cases {
		g := float64(c.model.MACs()) / 1e9
		if g < c.loGMacs || g > c.hiGMacs {
			t.Errorf("%s: %.2f GMACs outside [%v, %v]", c.model.Name, g, c.loGMacs, c.hiGMacs)
		}
	}
}

// TestLayerShapesValid validates every zoo layer.
func TestLayerShapesValid(t *testing.T) {
	zoo := append(EvaluationModels(), AlexNet(), DCGAN(), LSTM("lstm", 512, 512, 16))
	for _, m := range zoo {
		for _, li := range m.Layers {
			if err := li.Layer.Validate(); err != nil {
				t.Errorf("%s/%s: %v", m.Name, li.Layer.Name, err)
			}
			if li.Count < 1 {
				t.Errorf("%s/%s: count %d", m.Name, li.Layer.Name, li.Count)
			}
		}
	}
}

// TestKnownOutputSizes spot-checks activation arithmetic against the
// published architectures.
func TestKnownOutputSizes(t *testing.T) {
	alex := AlexNet()
	c1, _ := alex.Find("CONV1")
	if c1.Layer.OutY() != 55 {
		t.Errorf("AlexNet CONV1 out = %d; want 55", c1.Layer.OutY())
	}
	vgg := VGG16()
	c13, _ := vgg.Find("CONV13")
	if c13.Layer.OutY() != 14 {
		t.Errorf("VGG16 CONV13 out = %d; want 14", c13.Layer.OutY())
	}
	r50 := ResNet50()
	s1, _ := r50.Find("CONV1")
	if s1.Layer.OutY() != 112 || s1.Layer.StrideY != 2 {
		t.Errorf("ResNet50 CONV1 out = %d stride %d; want 112, 2", s1.Layer.OutY(), s1.Layer.StrideY)
	}
}

// TestClassification verifies the Table 4 taxonomy rules.
func TestClassification(t *testing.T) {
	vgg := VGG16()
	c1, _ := vgg.Find("CONV1")
	if Classify(c1.Layer) != EarlyConv {
		t.Errorf("VGG16 CONV1 classified %v", Classify(c1.Layer))
	}
	c13, _ := vgg.Find("CONV13")
	if Classify(c13.Layer) != LateConv {
		t.Errorf("VGG16 CONV13 classified %v; C=%d Y=%d", Classify(c13.Layer),
			c13.Layer.Sizes.Get(tensor.C), c13.Layer.Sizes.Get(tensor.Y))
	}
	mb := MobileNetV2()
	dw, _ := mb.Find("B2_dw")
	if Classify(dw.Layer) != Depthwise {
		t.Errorf("MobileNet DW classified %v", Classify(dw.Layer))
	}
	pw, _ := mb.Find("B2_exp")
	if Classify(pw.Layer) != Pointwise {
		t.Errorf("MobileNet PW classified %v", Classify(pw.Layer))
	}
	fcL, _ := vgg.Find("FC1")
	if Classify(fcL.Layer) != FullyConn {
		t.Errorf("FC classified %v", Classify(fcL.Layer))
	}
	dc := DCGAN()
	tr, _ := dc.Find("TRCONV1")
	if Classify(tr.Layer) != Transposed {
		t.Errorf("transposed conv classified %v", Classify(tr.Layer))
	}
}

// TestTransposedConvDensity checks the up-sampling substitution: a 2x
// up-scale zero-stuffs 3 of 4 input positions.
func TestTransposedConvDensity(t *testing.T) {
	dc := DCGAN()
	tr, _ := dc.Find("TRCONV2")
	if d := tr.Layer.Density[tensor.Input]; d != 0.25 {
		t.Errorf("input density = %v; want 0.25", d)
	}
	if tr.Layer.EffectiveMACs() >= tr.Layer.MACs() {
		t.Error("structured sparsity must reduce effective MACs")
	}
}

// TestGroupedConvMACs: the grouped 3x3 of ResNeXt must cost 1/32 of the
// dense equivalent.
func TestGroupedConvMACs(t *testing.T) {
	rx := ResNeXt50()
	g, _ := rx.Find("CONV2_g3x3")
	dense := g.Layer
	dense.Sizes = dense.Sizes.Set(tensor.C, dense.Sizes.Get(tensor.C)*32)
	if got, want := g.Layer.MACs()*32, dense.MACs(); got != want {
		t.Errorf("grouped MACs*32 = %d; dense = %d", got, want)
	}
}

// TestLSTMGates: one LSTM cell step is 4 gate GEMMs over input+hidden.
func TestLSTMGates(t *testing.T) {
	m := LSTM("cell", 256, 512, 8)
	if len(m.Layers) != 1 {
		t.Fatalf("layers = %d", len(m.Layers))
	}
	l := m.Layers[0].Layer
	want := int64(8) * 4 * 512 * (256 + 512)
	if l.MACs() != want {
		t.Errorf("LSTM MACs = %d; want %d", l.MACs(), want)
	}
}

func TestFindMissing(t *testing.T) {
	if _, ok := VGG16().Find("NOPE"); ok {
		t.Error("found a nonexistent layer")
	}
}

// TestGoogLeNet pins Inception-v1 against its published compute
// (~1.5 GMACs) and structure (9 modules x 6 branch layers + stem + FC).
func TestGoogLeNet(t *testing.T) {
	m := GoogLeNet()
	g := float64(m.MACs()) / 1e9
	if g < 1.0 || g > 2.2 {
		t.Errorf("GoogLeNet %.2f GMACs outside [1.0, 2.2]", g)
	}
	if len(m.Layers) != 3+9*6+1 {
		t.Errorf("layers = %d; want %d", len(m.Layers), 3+9*6+1)
	}
	inc, ok := m.Find("INC3a_3x3")
	if !ok || inc.Layer.Sizes.Get(tensor.K) != 128 {
		t.Errorf("INC3a_3x3 = %+v", inc.Layer)
	}
}

// TestByNameIsolation checks that ByName hands out independent copies
// of the interned zoo: mutating one never shows in the next call.
func TestByNameIsolation(t *testing.T) {
	for name, ctor := range registry {
		want := ctor()
		m, ok := ByName(name)
		if !ok || !reflect.DeepEqual(m, want) {
			t.Fatalf("%s: ByName differs from a fresh build", name)
		}
		for i := range m.Layers {
			m.Layers[i].Count += 7
			m.Layers[i].Layer.Name += "'"
			m.Layers[i].Layer.Sizes[tensor.K]++
		}
		for i := range m.Edges {
			m.Edges[i].From++
		}
		m.Layers = append(m.Layers[:1], m.Layers[0])
		if again, _ := ByName(name); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: mutating one ByName result changed the next", name)
		}
	}
}

// TestZooLayerMatchesFind checks the interned layer index against the
// model's own lookup, for every layer name of every zoo model.
func TestZooLayerMatchesFind(t *testing.T) {
	for _, name := range Zoo() {
		m, ok := ByName(name)
		if !ok {
			t.Fatalf("%s: listed by Zoo but unknown to ByName", name)
		}
		for _, li := range m.Layers {
			want, _ := m.Find(li.Layer.Name)
			got, ok := ZooLayer(name, li.Layer.Name)
			if !ok || got != want {
				t.Fatalf("%s/%s: ZooLayer = %+v, %v; Find = %+v", name, li.Layer.Name, got, ok, want)
			}
		}
		if _, ok := ZooLayer(name, "no-such-layer"); ok {
			t.Errorf("%s: ZooLayer found a layer that does not exist", name)
		}
	}
	if _, ok := ZooLayer("no-such-model", "CONV1"); ok {
		t.Error("ZooLayer found a layer of an unknown model")
	}
}

// TestByNameConcurrent has goroutines fetch and write their own copies
// at once; under -race it fails if any two copies share memory.
func TestByNameConcurrent(t *testing.T) {
	names := Zoo()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := names[i%len(names)]
				m, _ := ByName(name)
				for j := range m.Layers {
					m.Layers[j].Count++
				}
				for j := range m.Edges {
					m.Edges[j].To++
				}
				ZooLayer(name, m.Layers[0].Layer.Name)
			}
		}()
	}
	wg.Wait()
}
