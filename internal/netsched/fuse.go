package netsched

import (
	"math"

	"repro/internal/core"
	"repro/internal/dataflow"
	"repro/internal/models"
	"repro/internal/tensor"
	"repro/internal/tuner"
)

// FuseOptions configures the graph-level scheduler.
type FuseOptions struct {
	Options
	// MaxGroupLayers bounds a fusion subgraph's layer count (default 8).
	MaxGroupLayers int
}

// MemberPlan is one layer of a fusion group with its chosen mapping.
type MemberPlan struct {
	Index    int
	Inst     models.LayerInst
	Dataflow dataflow.Dataflow
	Result   *core.Result
}

// GroupPlan is one fusion subgraph of a fused schedule: a contiguous
// interval [Lo, Hi] of the (topologically ordered) layer list executed
// as a unit. A fused group streams tile bands through L2: external
// activations cross DRAM once, intermediates never do, and each member
// whose output escapes the group writes it once. An unfused (singleton)
// group is priced exactly by the per-layer engine.
type GroupPlan struct {
	Lo, Hi int // inclusive layer interval
	Fused  bool
	Count  int // instances (equal across members of a fused group)

	// TileRows is the terminal-band height in output rows; Bands the
	// number of bands covering the writers' output. Zero when unfused.
	TileRows, Bands int
	// WeightsResident reports whether the group's weights stay in L2
	// across all bands (read from DRAM once) or stream in per band.
	WeightsResident bool

	// Externals lists the distinct external tensors the group reads:
	// a producer layer index < Lo, or -(member+1) for a member that
	// reads the model input.
	Externals []int

	// Claimed off-chip element transfers per instance. For fused groups
	// DRAMReads = ActReads + WeightReads and DRAMWrites = ActWrites; for
	// singletons the engine totals are authoritative and the act/weight
	// split is derived from the same retention decision.
	ActReads, WeightReads, ActWrites int64
	DRAMReads, DRAMWrites            int64

	// RetainedBytes is the L2 held by intermediate and external input
	// windows between fused stages; L2PeakBytes the full footprint
	// (windows + resident weights + staging + output bands) the
	// capacity check admitted.
	RetainedBytes, L2PeakBytes int64

	// Cycles is the group's on-chip runtime over all instances.
	Cycles int64

	Members []MemberPlan
}

// Writers returns the member indices whose output leaves the group
// (consumed beyond Hi, or not consumed at all).
func (gp *GroupPlan) Writers(g *Graph) []int {
	var w []int
	for i := gp.Lo; i <= gp.Hi; i++ {
		if writesOut(g, i, gp.Hi) {
			w = append(w, i)
		}
	}
	return w
}

func writesOut(g *Graph, i, hi int) bool {
	for _, c := range g.Outs[i] {
		if c > hi {
			return true
		}
	}
	return len(g.Outs[i]) == 0
}

// fusibleOp reports whether the streaming contract covers the operator:
// windowed spatial operators compose row bands; FC/GEMM and transposed
// convolutions do not.
func fusibleOp(op tensor.OpType) bool {
	switch op {
	case tensor.Conv2D, tensor.PointwiseConv, tensor.DepthwiseConv, tensor.Pooling:
		return true
	}
	return false
}

// extKey identifies the external tensor a member reads from producer p:
// the producer's layer index, or -(member+1) when the member reads the
// model input (each root reads its own input tensor).
func extKey(member, p int) int {
	if p < 0 {
		return -(member + 1)
	}
	return p
}

// checkFusible validates the fusion legality of interval [lo, hi]:
//
//   - every member operator is windowed-spatial (fusibleOp);
//   - all members repeat the same instance Count;
//   - every member past the first is connected: an in-group producer, or
//     an external producer tensor shared with an earlier member (the
//     inception branch heads);
//   - channel consistency: a member's input channels equal the summed
//     output channels of its producers (the concat contract);
//   - in-group edges are spatially composable: the consumer's input rows
//     exceed the producer's output rows by at most R-1 (padding slack),
//     and never fall short (no cropping); same for columns;
//   - every writer shares the same output height and width, so one band
//     index drives all of them.
func checkFusible(g *Graph, lo, hi int) bool {
	layers := g.Model.Layers
	count := layers[lo].Count
	extSeen := map[int]bool{}
	var wOutY, wOutX int
	for v := lo; v <= hi; v++ {
		lv := layers[v].Layer
		if !fusibleOp(lv.Op) || layers[v].Count != count {
			return false
		}
		connected := v == lo
		shares := false
		for _, p := range g.Ins[v] {
			if p >= lo {
				connected = true
				continue
			}
			if extSeen[extKey(v, p)] {
				shares = true
			}
		}
		if len(g.Ins[v]) == 0 && v != lo {
			// A root inside the group reads its own model input: no
			// shared tensor, no in-group producer.
			return false
		}
		if !connected && !shares {
			return false
		}
		if len(g.Ins[v]) > 0 {
			sum := 0
			for _, p := range g.Ins[v] {
				sum += outChannels(layers[p].Layer)
			}
			if sum != lv.Sizes.Get(tensor.C) {
				return false
			}
		}
		for _, p := range g.Ins[v] {
			if p < lo {
				extSeen[extKey(v, p)] = true
				continue
			}
			lp := layers[p].Layer
			dy := inRowsFor(lv, lv.OutY()) - lp.OutY()
			dx := inColsFor(lv, lv.OutX()) - lp.OutX()
			if dy < 0 || dy > lv.Sizes.Get(tensor.R)-1 ||
				dx < 0 || dx > lv.Sizes.Get(tensor.S)-1 {
				return false
			}
		}
		if writesOut(g, v, hi) {
			if wOutY == 0 {
				wOutY, wOutX = lv.OutY(), lv.OutX()
			} else if lv.OutY() != wOutY || lv.OutX() != wOutX {
				return false
			}
		}
	}
	return true
}

// inColsFor is inRowsFor along X.
func inColsFor(l tensor.Layer, outCols int) int {
	if outCols <= 0 {
		return 0
	}
	return (outCols-1)*l.StrideX + l.Sizes.Get(tensor.S)
}

// needOutRows computes, backward over the interval, how many output rows
// each member must produce so that every writer emits tileRows rows
// (clamped to each member's output height). Index i of the returned
// slice is member lo+i.
func needOutRows(g *Graph, lo, hi, tileRows int) []int {
	layers := g.Model.Layers
	need := make([]int, hi-lo+1)
	for v := hi; v >= lo; v-- {
		lv := layers[v].Layer
		rows := 0
		if writesOut(g, v, hi) {
			rows = min(tileRows, lv.OutY())
		}
		for _, c := range g.Outs[v] {
			if c > hi {
				continue
			}
			lc := layers[c].Layer
			in := inRowsFor(lc, need[c-lo])
			if in > lv.OutY() {
				in = lv.OutY()
			}
			if in > rows {
				rows = in
			}
		}
		need[v-lo] = rows
	}
	return need
}

// groupCost is one interval's evaluated plan.
type groupCost struct {
	feasible bool
	fused    bool
	tile     int
	bands    int
	// weightsResident: the group's weights stay in L2 across all bands
	// and cross DRAM once; otherwise they stream in again per band.
	weightsResident bool
	// msMembers: the members run their minimal-staging fallback mappings
	// because the compact mappings did not fit beside the band windows.
	msMembers bool

	actR, wR, actW int64 // per instance
	readsPI        int64 // per instance, total
	writesPI       int64

	retained, peak int64
	externals      []int
	cost           int64 // (reads+writes) x count — the DP objective
}

// fusedClaims prices a legal fused interval under the streaming
// contract: every distinct external activation tensor is read once —
// only the rows the group's consumers actually touch, which matters
// when a producer beyond an (elided) downsampling boundary emits more
// rows than the group reads — every member's weights are read once,
// every writer's output is written once, and intermediates never touch
// DRAM.
func fusedClaims(g *Graph, lo, hi int) (actR, wR, actW int64, externals []int) {
	layers := g.Model.Layers
	extRows := map[int]int{}
	for v := lo; v <= hi; v++ {
		lv := layers[v].Layer
		wR += scaledElems(lv, tensor.Weight)
		in := inRowsFor(lv, lv.OutY())
		if len(g.Ins[v]) == 0 {
			k := extKey(v, -1)
			if in > extRows[k] {
				extRows[k] = in
			}
			externals = appendKey(externals, k)
		}
		for _, p := range g.Ins[v] {
			if p >= lo {
				continue
			}
			if in > extRows[p] {
				extRows[p] = in
			}
			externals = appendKey(externals, p)
		}
		if writesOut(g, v, hi) {
			actW += scaledElems(lv, tensor.Output)
		}
	}
	for k, rows := range extRows {
		rowEl, d, limit := g.extRowInfo(k)
		if rows > limit {
			rows = limit
		}
		actR += scaleRows(rows, rowEl, d)
	}
	return actR, wR, actW, externals
}

// appendKey appends k when absent (the external lists stay tiny).
func appendKey(keys []int, k int) []int {
	for _, have := range keys {
		if have == k {
			return keys
		}
	}
	return append(keys, k)
}

// footprint returns the L2 bytes a fused interval needs at band height
// tileRows, split into the parts the group-level scheduler trades off:
// the sliding windows of intermediates and external inputs (the
// retained tensors — exactly the rows one band needs, since a window
// both fills and drains within its band), the resident weight total,
// and one output band per writer. Member staging is priced separately
// (stagingBytes) since it depends on which mapping the members run.
func (f *fuser) footprint(lo, hi, tileRows int) (retained, weights, outBands int64) {
	g, eb := f.g, f.eb
	layers := g.Model.Layers
	needT := needOutRows(g, lo, hi, tileRows)

	extRows := map[int]int{} // ext key -> producer rows needed per band
	for v := lo; v <= hi; v++ {
		lv := layers[v].Layer
		weights += scaledElems(lv, tensor.Weight) * eb
		if writesOut(g, v, hi) {
			outBands += int64(min(tileRows, lv.OutY())) * outRowElems(lv) * eb
		} else {
			retained += int64(needT[v-lo]) * outRowElems(lv) * eb
		}
		in := inRowsFor(lv, needT[v-lo])
		if len(g.Ins[v]) == 0 {
			k := extKey(v, -1)
			if in > extRows[k] {
				extRows[k] = in
			}
		}
		for _, p := range g.Ins[v] {
			if p < lo && in > extRows[p] {
				extRows[p] = in
			}
		}
	}
	for k, rows := range extRows {
		rowEl, _, limit := g.extRowInfo(k)
		if rows > limit {
			rows = limit
		}
		retained += int64(rows) * rowEl * eb
	}
	return retained, weights, outBands
}

// stagingBytes returns the widest member staging requirement under the
// two mapping flavors a fused group may run: the compact mapping and
// the minimal-staging fallback (see stagingMappings).
func (f *fuser) stagingBytes(lo, hi int) (compact, ms int64) {
	for v := lo; v <= hi; v++ {
		if b := f.compact[v].Result.L2ReqBytes(); b > compact {
			compact = b
		}
		if b := f.ms[v].Result.L2ReqBytes(); b > ms {
			ms = b
		}
	}
	return compact, ms
}

// tileCandidates returns the band heights to try, largest first: the
// full output height halved down to one row.
func tileCandidates(rows int) []int {
	var c []int
	for t := rows; t > 1; t = (t + 1) / 2 {
		c = append(c, t)
	}
	return append(c, 1)
}

// fuser evaluates interval costs for the DP partitioner. base is each
// layer's own mapping; compact and ms are the mappings it runs as a
// fused member (see stagingMappings).
type fuser struct {
	g                 *Graph
	eb                int64
	opt               FuseOptions
	base, compact, ms []tuner.Choice
}

// stagingMappings takes a tuned layer's two fused-member mappings from
// its front. compact is the best mapping with staging capped at a
// quarter of the L2 budget (at least 4 KiB): the band windows and
// weights need the rest, and the unconstrained pick happily stages half
// the scratchpad. ms, the minimal-staging fallback, is the best mapping
// under the smallest power-of-two cap from 4 KiB that admits one.
// Because ms never consults L2Bytes, an interval feasible through it at
// some budget stays feasible at every larger budget — the keystone of
// the schedule's L2 monotonicity. Either is base when nothing fits its
// cap (ms caps at 2 GiB).
func stagingMappings(front tuner.Front, base tuner.Choice, l2Bytes int64) (compact, ms tuner.Choice) {
	compact, ms = base, base
	if ch, ok := front.Best(max(l2Bytes/4, 4<<10)); ok {
		compact = ch
	}
	minReq := int64(math.MaxInt64)
	for _, e := range front {
		minReq = min(minReq, e.L2ReqBytes)
	}
	limit := int64(4 << 10)
	for limit < minReq && limit < 2<<30 {
		limit *= 2
	}
	if ch, ok := front.Best(limit); ok {
		ms = ch
	}
	return compact, ms
}

// singletonCost prices layer i as its own group: the per-layer engine's
// DRAM traffic (core's L2 retention model) at the schedule's L2 budget.
// With a positive budget the claim is clamped to the spill
// (pure-streaming) traffic — more capacity can always fall back to
// streaming, so a singleton's claim is non-increasing in L2Bytes. The
// L2Bytes=0 sentinel prices at the capacity the engine itself used,
// reproducing the raw per-layer totals bit for bit.
func (f *fuser) singletonCost(i int) groupCost {
	r := f.base[i].Result
	var t core.DRAMTraffic
	if f.opt.L2Bytes == 0 {
		t = r.DRAMAt(r.EffectiveL2)
	} else {
		t = r.DRAMAt(f.opt.L2Bytes)
		if sp := r.DRAMSpill(); sp.Total() < t.Total() {
			t = sp
		}
	}
	count := int64(f.g.Model.Layers[i].Count)
	return groupCost{
		feasible: true,
		actR:     t.Reads[tensor.Input] + t.Reads[tensor.Output],
		wR:       t.Reads[tensor.Weight],
		actW:     t.Writes,
		readsPI:  t.Reads.Sum(),
		writesPI: t.Writes,
		cost:     t.Total() * count,
	}
}

// intervalCost prices interval [lo, hi]; hi > lo means a fused group,
// infeasible when illegal or when no band height fits in L2. Among the
// feasible (band height, weight residency) variants the cheapest claim
// wins, fewest bands on ties.
func (f *fuser) intervalCost(lo, hi int) groupCost {
	if lo == hi {
		return f.singletonCost(lo)
	}
	if f.opt.L2Bytes <= 0 || !checkFusible(f.g, lo, hi) {
		return groupCost{}
	}
	var wOutY int
	for v := lo; v <= hi; v++ {
		if writesOut(f.g, v, hi) {
			wOutY = f.g.Model.Layers[v].Layer.OutY()
			break
		}
	}
	actR, wElems, actW, ext := fusedClaims(f.g, lo, hi)
	count := int64(f.g.Model.Layers[lo].Count)
	stC, stMS := f.stagingBytes(lo, hi)
	var best groupCost
	for _, t := range tileCandidates(wOutY) {
		retained, weights, outBands := f.footprint(lo, hi, t)
		base := retained + outBands
		bands := (wOutY + t - 1) / t
		for _, resident := range []bool{true, false} {
			peak, wR := base, wElems
			if resident {
				peak += weights
			} else {
				wR = wElems * int64(bands)
			}
			// Prefer the compact mappings; fall back to the minimal-
			// staging ones when they do not fit beside the windows.
			staging, msUsed := stC, false
			if peak+staging > f.opt.L2Bytes {
				staging, msUsed = stMS, true
			}
			peak += staging
			if peak > f.opt.L2Bytes {
				continue
			}
			cost := (actR + wR + actW) * count
			if best.feasible && (cost > best.cost || (cost == best.cost && bands >= best.bands)) {
				continue
			}
			best = groupCost{
				feasible: true, fused: true,
				tile: t, bands: bands, weightsResident: resident,
				msMembers: msUsed,
				actR:      actR, wR: wR, actW: actW,
				readsPI: actR + wR, writesPI: actW,
				retained: retained, peak: peak,
				externals: ext,
				cost:      cost,
			}
		}
	}
	return best
}

// partitionDAG finds the contiguous partition of the layer list that
// minimizes total claimed DRAM traffic by interval DP. Because a fused
// interval's claim is independent of L2Bytes while its feasible set only
// grows with it, and singleton claims are non-increasing in L2Bytes, the
// optimum is monotonically non-increasing in L2Bytes.
func partitionDAG(f *fuser) []groupSpan {
	n := len(f.g.Model.Layers)
	maxLen := f.opt.MaxGroupLayers
	if maxLen <= 0 {
		maxLen = 8
	}
	const inf = int64(1) << 62
	dp := make([]int64, n+1)
	choice := make([]int, n+1)
	costs := make([]groupCost, n+1)
	for j := 1; j <= n; j++ {
		dp[j] = inf
		lo := j - maxLen
		if lo < 0 {
			lo = 0
		}
		for i := lo; i < j; i++ {
			c := f.intervalCost(i, j-1)
			if !c.feasible || dp[i] >= inf {
				continue
			}
			if dp[i]+c.cost < dp[j] {
				dp[j] = dp[i] + c.cost
				choice[j] = i
				costs[j] = c
			}
		}
	}
	var spans []groupSpan
	for j := n; j > 0; j = choice[j] {
		spans = append(spans, groupSpan{lo: choice[j], hi: j - 1, cost: costs[j]})
	}
	// Reverse into layer order.
	for l, r := 0, len(spans)-1; l < r; l, r = l+1, r-1 {
		spans[l], spans[r] = spans[r], spans[l]
	}
	return spans
}

type groupSpan struct {
	lo, hi int
	cost   groupCost
}
