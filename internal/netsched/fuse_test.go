package netsched

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/tensor"
)

// edgeCfg is the 256 KiB-L2 configuration the acceptance criterion is
// stated against.
func edgeCfg() hw.Config {
	cfg := hw.Accel256()
	cfg.L2Size = 256 << 10
	return cfg
}

func TestFusedGoogLeNetAcceptance(t *testing.T) {
	m := models.GoogLeNet()
	cfg := edgeCfg()
	s, err := RunFused(m, cfg, FuseOptions{Options: Options{L2Bytes: 256 << 10}})
	if err != nil {
		t.Fatal(err)
	}
	if s.FusedGroups() == 0 {
		t.Fatal("no fused groups on GoogLeNet at 256 KiB")
	}
	saving := 1 - float64(s.ActTraffic)/float64(s.BaselineAct)
	if saving < 0.25 {
		t.Errorf("activation traffic saving %.1f%% < 25%% (fused %d, baseline %d)",
			100*saving, s.ActTraffic, s.BaselineAct)
	}
	if s.DRAMTraffic > s.BaselineDRAM {
		t.Errorf("fused DRAM %d exceeds per-layer baseline %d", s.DRAMTraffic, s.BaselineDRAM)
	}
	if s.DRAMSaved != s.BaselineDRAM-s.DRAMTraffic {
		t.Errorf("DRAMSaved %d != baseline-fused %d", s.DRAMSaved, s.BaselineDRAM-s.DRAMTraffic)
	}
	for _, g := range s.Groups {
		if g.Fused && g.L2PeakBytes > s.L2Bytes {
			t.Errorf("group [%d,%d] peak %d exceeds L2 %d", g.Lo, g.Hi, g.L2PeakBytes, s.L2Bytes)
		}
	}
}

// TestFusedGroupsPartition checks the DP output is a contiguous partition
// of the layer list with consistent per-group bookkeeping.
func TestFusedGroupsPartition(t *testing.T) {
	for _, m := range []models.Model{chain(), models.GoogLeNet(), models.ResNet50()} {
		s, err := RunFused(m, edgeCfg(), FuseOptions{Options: Options{L2Bytes: 256 << 10}})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		next := 0
		for _, g := range s.Groups {
			if g.Lo != next || g.Hi < g.Lo {
				t.Fatalf("%s: group [%d,%d] breaks partition at %d", m.Name, g.Lo, g.Hi, next)
			}
			if len(g.Members) != g.Hi-g.Lo+1 {
				t.Errorf("%s: group [%d,%d] has %d members", m.Name, g.Lo, g.Hi, len(g.Members))
			}
			if g.Fused != (g.Hi > g.Lo) {
				t.Errorf("%s: group [%d,%d] fused=%v", m.Name, g.Lo, g.Hi, g.Fused)
			}
			for _, mb := range g.Members {
				if mb.Inst.Count != g.Count && g.Fused {
					t.Errorf("%s: group [%d,%d] member %d count %d != group %d",
						m.Name, g.Lo, g.Hi, mb.Index, mb.Inst.Count, g.Count)
				}
			}
			next = g.Hi + 1
		}
		if next != len(m.Layers) {
			t.Errorf("%s: partition covers %d of %d layers", m.Name, next, len(m.Layers))
		}
	}
}

// TestFusedSentinelMatchesPerLayerSum pins the L2Bytes=0 contract: no
// fusion, no retention, and DRAM traffic bit-identical to the plain
// per-layer schedule.
func TestFusedSentinelMatchesPerLayerSum(t *testing.T) {
	for _, m := range []models.Model{chain(), models.GoogLeNet()} {
		for name, opt := range map[string]Options{
			"fixed": {Dataflow: fixedKCP},
			"tuned": {},
		} {
			fused, err := RunFused(m, hw.Accel256(), FuseOptions{Options: opt})
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, name, err)
			}
			plain, err := Run(m, hw.Accel256(), opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, name, err)
			}
			if fused.FusedGroups() != 0 {
				t.Errorf("%s/%s: %d fused groups despite L2Bytes=0", m.Name, name, fused.FusedGroups())
			}
			if fused.DRAMTraffic != plain.DRAMTraffic {
				t.Errorf("%s/%s: sentinel DRAM %d != per-layer sum %d",
					m.Name, name, fused.DRAMTraffic, plain.DRAMTraffic)
			}
			if fused.BaselineDRAM != fused.DRAMTraffic {
				t.Errorf("%s/%s: baseline %d != traffic %d at sentinel",
					m.Name, name, fused.BaselineDRAM, fused.DRAMTraffic)
			}
		}
	}
}

// TestFusedTunesEachLayerOnce pins the tune-once contract: a tuned
// fused schedule takes its base, compact and minimal-staging mappings
// from one priced front per layer, so at every budget it makes exactly
// as many profile-cache lookups as the L2Bytes=0 sentinel, which
// tunes each layer once and never fuses.
func TestFusedTunesEachLayerOnce(t *testing.T) {
	pc := core.DefaultProfileCache
	lookups := func(l2 int64) int64 {
		before := pc.Hits() + pc.Misses() + pc.Coalesced()
		s, err := RunFused(models.GoogLeNet(), hw.Accel256(), FuseOptions{Options: Options{L2Bytes: l2}})
		if err != nil {
			t.Fatalf("L2 %d: %v", l2, err)
		}
		if l2 > 0 && s.FusedGroups() == 0 {
			t.Fatalf("L2 %d: no fused groups", l2)
		}
		return pc.Hits() + pc.Misses() + pc.Coalesced() - before
	}
	want := lookups(0)
	for _, l2 := range []int64{64 << 10, 256 << 10, 1 << 20} {
		if got := lookups(l2); got != want {
			t.Errorf("L2 %d KiB: %d profile lookups per RunFused, want %d (as at L2Bytes 0)", l2>>10, got, want)
		}
	}
}

func TestFusedRejectsNegativeL2(t *testing.T) {
	if _, err := RunFused(chain(), hw.Accel256(), FuseOptions{Options: Options{L2Bytes: -1}}); err == nil {
		t.Error("negative L2Bytes accepted")
	}
}

func TestBuildGraphChainFallback(t *testing.T) {
	m := chain()
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range m.Layers {
		if i > 0 && (len(g.Ins[i]) != 1 || g.Ins[i][0] != i-1) {
			t.Errorf("layer %d ins %v, want [%d]", i, g.Ins[i], i-1)
		}
	}
	if got := g.Roots(); len(got) != 1 || got[0] != 0 {
		t.Errorf("roots %v, want [0]", got)
	}
	if _, err := BuildGraph(models.Model{Name: "empty"}); err == nil {
		t.Error("empty model accepted")
	}
}

func TestBuildGraphDedup(t *testing.T) {
	m := chain()
	m.Edges = []models.ActEdge{{From: 0, To: 1}, {From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}}
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Outs[0]) != 1 {
		t.Errorf("duplicate edge kept: outs[0]=%v", g.Outs[0])
	}
}

func TestCheckFusible(t *testing.T) {
	g, err := BuildGraph(models.GoogLeNet())
	if err != nil {
		t.Fatal(err)
	}
	// Within an inception module the branches compose (3..8 is module 3a).
	if !checkFusible(g, 3, 8) {
		t.Error("inception module 3a rejected")
	}
	// The stem CONV1 -> CONV2r crosses an (omitted) maxpool: the consumer
	// needs fewer rows than the producer emits, so fusing would drop data.
	if checkFusible(g, 0, 1) {
		t.Error("pooling-boundary edge accepted")
	}
	n := len(g.Model.Layers)
	// The classifier is an FC layer: not a windowed-spatial operator.
	if checkFusible(g, n-2, n-1) {
		t.Error("FC layer accepted into a fused group")
	}
}

func TestCheckFusibleCountMismatch(t *testing.T) {
	m := chain()
	m.Layers[1].Count = 3
	g, err := BuildGraph(m)
	if err != nil {
		t.Fatal(err)
	}
	if checkFusible(g, 0, 1) {
		t.Error("count mismatch accepted")
	}
}

// TestFusedChainSavesTraffic checks the simplest positive case: a linear
// chain whose activations fit fuses and moves less DRAM than per-layer.
func TestFusedChainSavesTraffic(t *testing.T) {
	s, err := RunFused(chain(), hw.Accel256(), FuseOptions{Options: Options{L2Bytes: 1 << 20}})
	if err != nil {
		t.Fatal(err)
	}
	if s.FusedGroups() == 0 {
		t.Fatal("chain did not fuse at 1 MiB")
	}
	if s.DRAMTraffic >= s.BaselineDRAM {
		t.Errorf("fused chain DRAM %d not below baseline %d", s.DRAMTraffic, s.BaselineDRAM)
	}
}

// TestOverlappingResidualsHeldOnce is the regression test for the
// double-count fix: two skip edges sharing one source activation pin its
// bytes once, not twice.
func TestOverlappingResidualsHeldOnce(t *testing.T) {
	m := chain()
	cfg := hw.Accel256()
	one, err := Run(m, cfg, Options{
		Dataflow: fixedKCP, L2Bytes: 1 << 20,
		Residuals: []Edge{{From: 0, To: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	two, err := Run(m, cfg, Options{
		Dataflow: fixedKCP, L2Bytes: 1 << 20,
		Residuals: []Edge{{From: 0, To: 2}, {From: 0, To: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The overlapping edge adds no pressure: the source is live through
	// layer 3 either way, so held bytes and traffic must match exactly.
	for i := range one.Plans {
		if one.Plans[i].HeldBytes != two.Plans[i].HeldBytes {
			t.Errorf("layer %d held %d with one edge, %d with overlapping edges",
				i, one.Plans[i].HeldBytes, two.Plans[i].HeldBytes)
		}
	}
	if one.DRAMTraffic != two.DRAMTraffic {
		t.Errorf("overlapping residuals changed traffic: %d vs %d",
			one.DRAMTraffic, two.DRAMTraffic)
	}
	// And the held capacity is exactly one copy of layer 0's output.
	want := scaled(m.Layers[0].Layer, tensor.Output, cfg.Normalize())
	if two.Plans[1].HeldBytes != want {
		t.Errorf("held %d bytes, want one copy = %d", two.Plans[1].HeldBytes, want)
	}
}
