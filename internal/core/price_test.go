package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/lru"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/tensor"
)

// equivLayers picks model-zoo layers covering the operator taxonomy
// (early/late conv, depthwise, pointwise, fully-connected) plus a sparse
// variant, small enough for a full matrix sweep.
func equivLayers(t *testing.T) []tensor.Layer {
	t.Helper()
	pick := func(m models.Model, name string) tensor.Layer {
		li, ok := m.Find(name)
		if !ok {
			t.Fatalf("layer %s not found in %s", name, m.Name)
		}
		return li.Layer
	}
	resnet := models.ResNet50()
	mobile := models.MobileNetV2()
	vgg := models.VGG16()
	layers := []tensor.Layer{
		pick(resnet, "CONV1"),
		pick(vgg, "CONV13"),
		pick(mobile, "B1_dw"),
		pick(mobile, "B1_pw"),
		pick(resnet, "FC1000"),
	}
	sparse := pick(vgg, "CONV13")
	sparse.Name = "CONV13_sparse"
	sparse.Density[tensor.Input] = 0.45
	sparse.Density[tensor.Weight] = 0.6
	layers = append(layers, sparse.Normalize())
	return layers
}

// equivConfigs sweeps the hardware axes Price must react to: NoC
// bandwidth, vector width, sparsity-imbalance pricing, and the NoC
// capability flags (multicast, in-network reduction, channels) across
// bus/tree/mesh topologies.
func equivConfigs(pes int) []hw.Config {
	var cfgs []hw.Config
	for _, bw := range []float64{2, 8, 32} {
		for _, vw := range []int{1, 4} {
			for _, sp := range []bool{false, true} {
				m := noc.Bus(bw)
				m.Reduction = true
				cfgs = append(cfgs, hw.Config{
					Name: "bus", NumPEs: pes, VectorWidth: vw,
					SparseImbalance: sp, NoCs: []noc.Model{m},
				}.Normalize())
			}
		}
	}
	noRed := noc.Bus(8) // partials travel up and rmw-accumulate in the parent
	cfgs = append(cfgs, hw.Config{Name: "bus-nored", NumPEs: pes, NoCs: []noc.Model{noRed}}.Normalize())
	multi := noc.Bus(8)
	multi.Channels = 3
	multi.Reduction = true
	cfgs = append(cfgs, hw.Config{Name: "bus-ch3", NumPEs: pes, NoCs: []noc.Model{multi}}.Normalize())
	tree := noc.Tree(pes)
	cfgs = append(cfgs, hw.Config{Name: "tree", NumPEs: pes, NoCs: []noc.Model{tree}}.Normalize())
	mesh := noc.Mesh(pes)
	cfgs = append(cfgs, hw.Config{Name: "mesh", NumPEs: pes, NoCs: []noc.Model{mesh}}.Normalize())
	return cfgs
}

// TestPriceEquivalence asserts Price(Profile(spec), cfg) reproduces
// Analyze(spec, cfg) field for field over the Table 3 dataflows ×
// model-zoo layers × hardware matrix — the acceptance bar for the
// profile/price split.
func TestPriceEquivalence(t *testing.T) {
	const pes = 64
	layers := equivLayers(t)
	cfgs := equivConfigs(pes)
	compared := 0
	for _, df := range dataflows.All() {
		for _, layer := range layers {
			spec, err := dataflow.Resolve(df, layer, pes)
			if err != nil {
				continue // mapping not applicable to this shape; Analyze would fail identically
			}
			prof, err := Profile(spec)
			if err != nil {
				t.Fatalf("%s/%s: Profile: %v", df.Name, layer.Name, err)
			}
			for _, cfg := range cfgs {
				want, errA := refAnalyze(spec, cfg)
				got, errP := prof.Price(cfg)
				if (errA == nil) != (errP == nil) {
					t.Fatalf("%s/%s/%s: error mismatch: analyze=%v price=%v",
						df.Name, layer.Name, cfg.Name, errA, errP)
				}
				if errA != nil {
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s/%s/%s: Price result differs from Analyze\nanalyze: %+v\nprice:   %+v",
						df.Name, layer.Name, cfg.Name, want, got)
				}
				compared++
			}
		}
	}
	if compared < 200 {
		t.Fatalf("equivalence matrix too sparse: only %d comparisons ran", compared)
	}
}

// TestPriceBatchEquivalence asserts PriceBatch(p, cfgs)[i] is
// bit-identical to the sequential Price(p, cfgs[i]) over the same
// dataflow × layer × hardware matrix as TestPriceEquivalence, and pins
// the two edge shapes of the contract: a single-config batch equals a
// plain Price, and an empty batch returns an empty non-nil slice with a
// nil error.
func TestPriceBatchEquivalence(t *testing.T) {
	const pes = 64
	layers := equivLayers(t)
	cfgs := equivConfigs(pes)
	compared := 0
	for _, df := range dataflows.All() {
		for _, layer := range layers {
			spec, err := dataflow.Resolve(df, layer, pes)
			if err != nil {
				continue
			}
			prof, err := Profile(spec)
			if err != nil {
				t.Fatalf("%s/%s: Profile: %v", df.Name, layer.Name, err)
			}
			want := make([]*Result, len(cfgs))
			for i, cfg := range cfgs {
				if want[i], err = prof.Price(cfg); err != nil {
					t.Fatalf("%s/%s/%s: Price: %v", df.Name, layer.Name, cfg.Name, err)
				}
			}
			got, err := prof.PriceBatch(cfgs)
			if err != nil {
				t.Fatalf("%s/%s: PriceBatch: %v", df.Name, layer.Name, err)
			}
			if len(got) != len(cfgs) {
				t.Fatalf("%s/%s: PriceBatch returned %d results for %d configs",
					df.Name, layer.Name, len(got), len(cfgs))
			}
			for i := range cfgs {
				if !reflect.DeepEqual(want[i], got[i]) {
					t.Fatalf("%s/%s/%s: batch result differs from sequential Price\nprice: %+v\nbatch: %+v",
						df.Name, layer.Name, cfgs[i].Name, want[i], got[i])
				}
				compared++
			}

			one, err := prof.PriceBatch(cfgs[:1])
			if err != nil || len(one) != 1 || !reflect.DeepEqual(want[0], one[0]) {
				t.Fatalf("%s/%s: single-config batch diverged (err=%v)", df.Name, layer.Name, err)
			}
			empty, err := prof.PriceBatch(nil)
			if err != nil || empty == nil || len(empty) != 0 {
				t.Fatalf("%s/%s: empty batch: got (%v, %v), want (non-nil empty, nil)",
					df.Name, layer.Name, empty, err)
			}
		}
	}
	if compared < 200 {
		t.Fatalf("batch equivalence matrix too sparse: only %d comparisons ran", compared)
	}
}

// TestPriceBatchMixedValidity pins the error contract: an invalid
// configuration fails only its own slot — results[i] is nil exactly for
// the failed indices, the joined error unwraps to hw.ErrInvalidConfig
// and names the failing index, and every valid slot stays bit-identical
// to what an all-valid batch produces.
func TestPriceBatchMixedValidity(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	valid := equivConfigs(pes)[:3]
	mismatch := testHW(pes * 2) // wrong PE count for this profile
	cfgs := []hw.Config{valid[0], mismatch, valid[1], mismatch, valid[2]}
	badIdx := map[int]bool{1: true, 3: true}

	rs, err := prof.PriceBatch(cfgs)
	if err == nil {
		t.Fatal("want an error for the invalid lanes, got nil")
	}
	if !errors.Is(err, hw.ErrInvalidConfig) {
		t.Fatalf("joined error does not unwrap to hw.ErrInvalidConfig: %v", err)
	}
	if !strings.Contains(err.Error(), "config 1") || !strings.Contains(err.Error(), "config 3") {
		t.Fatalf("error does not name the failing indices: %v", err)
	}
	for i := range cfgs {
		if badIdx[i] != (rs[i] == nil) {
			t.Fatalf("slot %d: nil=%v, want nil only for invalid lanes", i, rs[i] == nil)
		}
	}
	for i, cfg := range cfgs {
		if badIdx[i] {
			continue
		}
		want, err := prof.Price(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, rs[i]) {
			t.Fatalf("slot %d: invalid neighbors poisoned a valid result", i)
		}
	}
}

// TestPriceBatchAllocs guards the zero-allocs-per-point property: the
// allocation count of a PriceBatch call is independent of the batch
// size (the fixed cost is the escaping Result arena; per-point scratch
// comes from the pool), and the fixed cost itself stays small.
func TestPriceBatchAllocs(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	var cfgs []hw.Config
	for _, bw := range []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256} {
		m := noc.Bus(bw)
		m.Reduction = true
		cfgs = append(cfgs, hw.Config{Name: "alloc", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize())
	}
	allocsFor := func(n int) float64 {
		sub := cfgs[:n]
		return testing.AllocsPerRun(50, func() {
			if _, err := prof.PriceBatch(sub); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocsFor(2), allocsFor(16)
	if perPoint := (large - small) / 14; perPoint > 1.0 {
		t.Errorf("marginal allocations per point = %.2f (batch2=%v, batch16=%v), want ~0",
			perPoint, small, large)
	}
	// The fixed cost is the results slice plus the four Result-arena
	// backings; leave headroom of one slice header per table.
	if large > 9+16 { // 16 = one *Result per point in the returned slice
		t.Errorf("fixed batch cost too high: %v allocs for 16 points", large)
	}
}

// TestPriceBatchSharedProfileConcurrent batch-prices one shared profile
// from many goroutines; with -race this proves the sealed arena is
// read-only under concurrent PriceBatch and that pooled scratch never
// leaks across calls.
func TestPriceBatchSharedProfileConcurrent(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := equivConfigs(pes)
	want, err := prof.PriceBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				// Rotate the batch split per goroutine so pool reuse
				// interleaves differently sized scratch buffers.
				cut := (w*3+rep)%(len(cfgs)-1) + 1
				for _, part := range [][]hw.Config{cfgs[:cut], cfgs[cut:]} {
					off := 0
					if &part[0] != &cfgs[0] {
						off = cut
					}
					got, err := prof.PriceBatch(part)
					if err != nil {
						t.Errorf("batch: %v", err)
						return
					}
					for i := range got {
						if !reflect.DeepEqual(want[off+i], got[i]) {
							t.Errorf("cfg %s: concurrent PriceBatch diverged", part[i].Name)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPriceRejectsPEMismatch checks Price reproduces Analyze's guard
// against a configuration with a different PE count.
func TestPriceRejectsPEMismatch(t *testing.T) {
	spec, err := dataflow.Resolve(outputStationary(), smallConv(), 4)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prof.Price(testHW(8)); !errors.Is(err, hw.ErrInvalidConfig) {
		t.Fatalf("want ErrInvalidConfig for PE mismatch, got %v", err)
	}
}

// TestPriceSharedProfileConcurrent prices one shared profile from many
// goroutines under different configs; run with -race this catches any
// mutation of the recorded DAG (the leaf counts are shared read-only).
func TestPriceSharedProfileConcurrent(t *testing.T) {
	const pes = 64
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), equivLayers(t)[1], pes)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := equivConfigs(pes)
	want := make([]*Result, len(cfgs))
	for i, cfg := range cfgs {
		if want[i], err = prof.Price(cfg); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, cfg := range cfgs {
				got, err := prof.Price(cfg)
				if err != nil {
					t.Errorf("price: %v", err)
					return
				}
				if !reflect.DeepEqual(want[i], got) {
					t.Errorf("cfg %s: concurrent Price diverged", cfg.Name)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestProfileCacheHammer exercises the shared cache under contention:
// many goroutines requesting a handful of keys through a deliberately
// tiny cache, forcing hits, misses, singleflight coalescing and
// evictions to interleave. Run with -race.
func TestProfileCacheHammer(t *testing.T) {
	const pes = 64
	cache := NewProfileCache(3)
	dfs := dataflows.All()
	layers := equivLayers(t)
	cfg := testHW(pes)
	cfg.NumPEs = pes
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				df := dfs[(w+i)%len(dfs)]
				layer := layers[(w*3+i)%len(layers)]
				prof, _, err := cache.ProfileDataflow(df, layer, pes)
				if err != nil {
					continue // some mappings don't resolve for some shapes
				}
				if prof.NumPEs() != pes {
					t.Errorf("profile bound to %d PEs, want %d", prof.NumPEs(), pes)
					return
				}
				if _, err := prof.Price(cfg); err != nil {
					t.Errorf("price: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if cache.Misses() == 0 {
		t.Fatal("expected cache misses")
	}
	if cache.Len() > 3+lru.Shards { // per-shard rounding allows slight overshoot
		t.Fatalf("cache grew past capacity: %d", cache.Len())
	}
}

// TestProfileCacheKeying checks hw-config-independent keying: distinct
// layer names miss (reports echo the name), identical triples hit.
func TestProfileCacheKeying(t *testing.T) {
	cache := NewProfileCache(64)
	layer := smallConv()
	df := outputStationary()
	if _, _, err := cache.ProfileDataflow(df, layer, 4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.ProfileDataflow(df, layer, 4); err != nil {
		t.Fatal(err)
	}
	if h := cache.Hits(); h != 1 {
		t.Fatalf("want 1 hit for identical triple, got %d", h)
	}
	renamed := layer
	renamed.Name = "other"
	if _, _, err := cache.ProfileDataflow(df, renamed, 4); err != nil {
		t.Fatal(err)
	}
	if m := cache.Misses(); m != 2 {
		t.Fatalf("renamed layer should miss (name is echoed in reports); misses = %d", m)
	}
	if _, _, err := cache.ProfileDataflow(df, layer, 8); err != nil {
		t.Fatal(err)
	}
	if m := cache.Misses(); m != 3 {
		t.Fatalf("different PE count should miss; misses = %d", m)
	}
}

// BenchmarkPriceBatch measures batch pricing across batch sizes: the
// ns/op of an n-point batch divided by n is the per-design cost, and
// the reported allocs/op should not grow with n (the fixed cost is the
// escaping Result arena; per-point scratch is pooled).
func BenchmarkPriceBatch(b *testing.B) {
	const pes = 256
	layer := models.VGG16().Layers[10].Layer
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), layer, pes)
	if err != nil {
		b.Fatal(err)
	}
	prof, err := Profile(spec)
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []hw.Config
	for _, bw := range []float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192} {
		m := noc.Bus(bw)
		m.Reduction = true
		cfgs = append(cfgs, hw.Config{Name: "bench", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize())
	}
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("points%d", n), func(b *testing.B) {
			sub := cfgs[:n]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := prof.PriceBatch(sub); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileVsAnalyze breaks one-shot Analyze into its two
// phases: Profile (the expensive walk, paid once per profile) and Price
// (the cheap per-hardware-point pricing, paid per configuration).
// Reference times the test-only fused walk (refAnalyze), which shows
// what one-shot callers pay for recording the case DAG before pricing
// it.
func BenchmarkProfileVsAnalyze(b *testing.B) {
	spec, cfg := oneShotCase(b)
	b.Run("Analyze", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Analyze(spec, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := refAnalyze(spec, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Profile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Profile(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	prof, err := Profile(spec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Price", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := prof.Price(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// oneShotCase is the one-shot workload BenchmarkProfileVsAnalyze times
// and TestAnalyzeAllocs gates: KC-P on VGG16 Layers[10] over 256 PEs.
func oneShotCase(tb testing.TB) (*dataflow.Spec, hw.Config) {
	tb.Helper()
	const pes = 256
	spec, err := dataflow.Resolve(dataflows.Get("KC-P"), models.VGG16().Layers[10].Layer, pes)
	if err != nil {
		tb.Fatal(err)
	}
	m := noc.Bus(16)
	m.Reduction = true
	return spec, hw.Config{Name: "bench", NumPEs: pes, NoCs: []noc.Model{m}}.Normalize()
}

// TestAnalyzeAllocs pins one-shot Analyze's allocation count: one
// Profile walk (its memo, node records and sealed arena) plus one Price
// (the Result and its tables; the pricing scratch is pooled).
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the pricing scratch pool drops values at random under -race")
	}
	spec, cfg := oneShotCase(t)
	const maxAllocs = 77
	n := testing.AllocsPerRun(20, func() {
		if _, err := Analyze(spec, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if n > maxAllocs {
		t.Errorf("one-shot Analyze allocates %v times, want at most %d", n, maxAllocs)
	}
}

// TestProfileKeyAllocs pins the profile key's cost: the one augmented
// directive list is its only allocation, since the canonical encoding
// builds on the stack and hashes without formatting.
func TestProfileKeyAllocs(t *testing.T) {
	df, layer := dataflows.Get("YR-P"), equivLayers(t)[1]
	if n := testing.AllocsPerRun(100, func() { profileKey(df, layer, 64) }); n > 1 {
		t.Errorf("profileKey allocates %v times per call, want at most 1", n)
	}
}
