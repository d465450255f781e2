package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/noc"
	"repro/internal/tensor"
)

// randomConv draws a valid CONV2D layer with small random dimensions,
// occasionally sparse, exercising shapes no curated fixture covers.
func randomConv(rng *rand.Rand, i int) tensor.Layer {
	r := []int{1, 3, 5}[rng.Intn(3)]
	s := []int{1, 3, 5}[rng.Intn(3)]
	l := tensor.Layer{
		Name: fmt.Sprintf("rand%d", i),
		Op:   tensor.Conv2D,
		Sizes: tensor.Sizes{
			tensor.N: 1,
			tensor.K: 4 + rng.Intn(29),
			tensor.C: 4 + rng.Intn(29),
			tensor.Y: r + 4 + rng.Intn(16),
			tensor.X: s + 4 + rng.Intn(16),
			tensor.R: r,
			tensor.S: s,
		},
		StrideY: 1, StrideX: 1,
	}
	if rng.Intn(3) == 0 {
		l.Density[tensor.Input] = 0.3 + 0.6*rng.Float64()
		l.Density[tensor.Weight] = 0.3 + 0.6*rng.Float64()
	}
	return l.Normalize()
}

// randomDataflow draws either a Table 3 dataflow or a synthesized DSL
// mapping: K/C/Y/X in shuffled order with random tile sizes, one of
// them spatial, R/S fully unrolled, and sometimes a cluster level.
func randomDataflow(rng *rand.Rand, i int) (dataflow.Dataflow, error) {
	if rng.Intn(3) == 0 {
		names := dataflows.Names
		return dataflows.Get(names[rng.Intn(len(names))]), nil
	}
	dims := []string{"K", "C", "Y", "X"}
	rng.Shuffle(len(dims), func(a, b int) { dims[a], dims[b] = dims[b], dims[a] })
	spatial := rng.Intn(len(dims))
	// Y and X slide a filter window, so their tile must span it
	// (Sz(R)/Sz(S)); K and C tile freely.
	mapFor := func(d string, isSpatial bool) string {
		kind := "TemporalMap"
		if isSpatial {
			kind = "SpatialMap"
		}
		switch d {
		case "Y":
			return fmt.Sprintf("%s(Sz(R),1) Y; ", kind)
		case "X":
			return fmt.Sprintf("%s(Sz(S),1) X; ", kind)
		}
		if isSpatial {
			return fmt.Sprintf("SpatialMap(1,1) %s; ", d)
		}
		size := []int{1, 2, 4, 8}[rng.Intn(4)]
		return fmt.Sprintf("TemporalMap(%d,%d) %s; ", size, size, d)
	}
	dsl := ""
	for j, d := range dims {
		dsl += mapFor(d, j == spatial)
	}
	dsl += "TemporalMap(Sz(R),Sz(R)) R; TemporalMap(Sz(S),Sz(S)) S;"
	if rng.Intn(2) == 0 {
		inner := dims[(spatial+1)%len(dims)]
		dsl += fmt.Sprintf(" Cluster(%d, P); %s", 2<<rng.Intn(2), mapFor(inner, true))
	}
	return dataflow.ParseDataflow(fmt.Sprintf("randdf%d", i), dsl)
}

// TestPriceBandwidthMonotonicProperty is the randomized property pass:
// for random dataflow × layer pairs, as the NoC bus gets wider the
// priced runtime must never increase (more wires can't slow a pipe
// model down), and at every sampled bandwidth both the scalar Price and
// the corresponding PriceBatch lane (the whole axis priced in one walk)
// must remain bit-identical to the fused Analyze engine.
func TestPriceBandwidthMonotonicProperty(t *testing.T) {
	const pes = 64
	rng := rand.New(rand.NewSource(0xda7af10))
	checked := 0
	for i := 0; checked < 24 && i < 200; i++ {
		df, err := randomDataflow(rng, i)
		if err != nil {
			t.Fatalf("case %d: synthesized DSL failed to parse: %v", i, err)
		}
		layer := randomConv(rng, i)
		spec, err := dataflow.Resolve(df, layer, pes)
		if err != nil {
			continue // mapping not applicable to this shape; Analyze fails identically
		}
		prof, err := Profile(spec)
		if err != nil {
			t.Fatalf("case %d (%s/%s): Profile: %v", i, df.Name, layer.Name, err)
		}
		bw := 1 + 3*rng.Float64()
		cfgs := make([]hw.Config, 0, 6)
		for p := 0; p < 6; p++ {
			m := noc.Bus(bw)
			m.Reduction = true
			cfgs = append(cfgs, hw.Config{
				Name: fmt.Sprintf("prop-bw%.1f", bw), NumPEs: pes,
				NoCs: []noc.Model{m},
			}.Normalize())
			bw *= 1.5 + rng.Float64()
		}
		batch, errB := prof.PriceBatch(cfgs)
		if errB != nil {
			t.Fatalf("case %d (%s/%s): PriceBatch: %v", i, df.Name, layer.Name, errB)
		}
		prevRuntime := int64(-1)
		for p, cfg := range cfgs {
			bw := cfg.NoCs[0].Bandwidth
			want, errA := refAnalyze(spec, cfg)
			got, errP := prof.Price(cfg)
			if (errA == nil) != (errP == nil) {
				t.Fatalf("case %d (%s/%s) bw=%.2f: error mismatch: analyze=%v price=%v",
					i, df.Name, layer.Name, bw, errA, errP)
			}
			if errA != nil {
				t.Fatalf("case %d (%s/%s) bw=%.2f: Analyze: %v", i, df.Name, layer.Name, bw, errA)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("case %d (%s/%s) bw=%.2f: Price diverged from Analyze\nanalyze: %+v\nprice:   %+v",
					i, df.Name, layer.Name, bw, want, got)
			}
			if !reflect.DeepEqual(want, batch[p]) {
				t.Fatalf("case %d (%s/%s) bw=%.2f: PriceBatch diverged from Analyze\nanalyze: %+v\nbatch:   %+v",
					i, df.Name, layer.Name, bw, want, batch[p])
			}
			if prevRuntime >= 0 && got.Runtime > prevRuntime {
				t.Fatalf("case %d (%s/%s): runtime increased with bandwidth: %d cycles at %.2f elem/cy after %d at narrower pipe",
					i, df.Name, layer.Name, got.Runtime, bw, prevRuntime)
			}
			prevRuntime = got.Runtime
		}
		checked++
	}
	if checked < 24 {
		t.Fatalf("property pass too sparse: only %d resolvable cases out of 200 draws", checked)
	}
}
