package main

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
)

func durs(ms ...int) []time.Duration {
	out := make([]time.Duration, len(ms))
	for i, m := range ms {
		out[i] = time.Duration(m) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	s := durs(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	for _, c := range []struct {
		q    float64
		want int
	}{{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.q); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("p%g = %v, want %dms", c.q, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty samples must give 0")
	}
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n          int
		want, got  float64
		wantBeyond int
	}{
		{1000, 99, 99, 10},
		{100, 90, 90, 10},
		{100, 99, 90, 10},
		{50, 90, 80, 10},
		{117, 90, 90, 11},
		{15, 90, 50, 7}, // too few samples: never below the median
	} {
		q := tailPercentile(c.n, c.want)
		if q != c.got {
			t.Errorf("n=%d want p%g: picked p%g, expected p%g", c.n, c.want, q, c.got)
		}
		if b := beyond(c.n, q); b != c.wantBeyond {
			t.Errorf("n=%d p%g: %d samples beyond, expected %d", c.n, q, b, c.wantBeyond)
		}
	}
	// The pick is the highest percentile with at least ten beyond it.
	for n := 20; n < 2000; n += 7 {
		q := tailPercentile(n, 99)
		if beyond(n, q) < minTail {
			t.Fatalf("n=%d: p%g leaves %d beyond", n, q, beyond(n, q))
		}
		if q < 99 && beyond(n, q+0.5) >= minTail {
			t.Fatalf("n=%d: p%g is not the highest resolvable percentile", n, q)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping count once", []interval{{10, 30}, {20, 40}}, 70},
		{"clipped to the parent", []interval{{-10, 10}, {90, 130}}, 80},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"full cover", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: self %d, want %d", c.name, got, c.want)
		}
	}
}

func span(id, parent uint64, trace, name string, start, end int) obs.SpanRecord {
	t0 := time.Unix(0, 0)
	return obs.SpanRecord{
		ID: id, Parent: parent, TraceID: trace, Name: name,
		Start: t0.Add(time.Duration(start)), End: t0.Add(time.Duration(end)),
	}
}

func TestAttributeSharesSumToWall(t *testing.T) {
	spans := []obs.SpanRecord{
		span(1, 0, "a", "op", 0, 100),
		span(2, 1, "a", "dse.explore", 10, 60),
		span(3, 2, "a", "core.price_batch", 20, 40),
		span(4, 1, "a", "client.attempt", 70, 90),
		span(1<<40+1, 4, "a", "http.request", 75, 85), // node span under the attempt
		span(5, 0, "b", "probe", 0, 1000),             // not an operation
		span(6, 5, "b", "core.analyze", 0, 10),
	}
	a := attribute(spans)
	want := map[string]time.Duration{"other": 30, "dse": 30, "core": 20, "client": 10, "serve": 10}
	if !reflect.DeepEqual(a.byLayer, want) {
		t.Fatalf("self time by layer %v, want %v", a.byLayer, want)
	}
	if a.opWall != 100 {
		t.Fatalf("op wall %v, want 100ns", a.opWall)
	}
	if st := a.byName["core.analyze"]; st.inOps != 0 || len(st.durs) != 1 {
		t.Fatalf("probe span counted in operations: %+v", st)
	}
}

// serveOps returns the first n requests of the client's stream.
func serveOps(seed int64, n, hot int, mix serveMix) []serveOp {
	s := newServeStream(seed, hot, mix)
	ops := make([]serveOp, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func TestSameSeedSameInputs(t *testing.T) {
	mix := serveMixShape
	if !reflect.DeepEqual(serveOps(7, 500, 40, mix), serveOps(7, 500, 40, mix)) {
		t.Fatal("serve request sequence differs for the same seed")
	}
	if reflect.DeepEqual(serveOps(7, 500, 40, mix), serveOps(8, 500, 40, mix)) {
		t.Fatal("serve request sequence ignores the seed")
	}
	a, b := missShapes(7, 300), missShapes(7, 300)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("miss shapes differ for the same seed")
	}
	seen := map[convShape]bool{}
	for _, s := range a {
		if seen[s] {
			t.Fatalf("miss shape %+v repeats", s)
		}
		seen[s] = true
	}
	if !reflect.DeepEqual(planCycle(7), planCycle(7)) {
		t.Fatal("plan cycle differs for the same seed")
	}
	if !reflect.DeepEqual(permutation(7, "fleet.order", 13), permutation(7, "fleet.order", 13)) {
		t.Fatal("fleet order differs for the same seed")
	}
}

// The seed orders the plan cycle but never changes its mix, so runs on
// different seeds measure the same work.
func TestPlanCycleMixIndependentOfSeed(t *testing.T) {
	mix := func(seed int64) []string {
		var out []string
		for _, op := range planCycle(seed) {
			out = append(out, fmt.Sprint(op.kind, op.model.Name, op.layer.Name, op.budget))
		}
		sort.Strings(out)
		return out
	}
	if !reflect.DeepEqual(mix(1), mix(2)) {
		t.Fatal("plan operation mix depends on the seed")
	}
	if reflect.DeepEqual(planCycle(1), planCycle(2)) {
		t.Fatal("plan order ignores the seed")
	}
}

func TestServeMixShares(t *testing.T) {
	ops := serveOps(3, 20000, 100, serveMixShape)
	count := map[uint8]int{}
	for _, op := range ops {
		count[op.kind]++
		if op.kind == opBatch && len(op.keys) != serveMixShape.batchSize {
			t.Fatalf("batch of %d items", len(op.keys))
		}
	}
	if f := float64(count[opMiss]) / 20000; f < 0.09 || f > 0.11 {
		t.Fatalf("miss share %.3f, want about %.2f", f, serveMixShape.missShare)
	}
	if f := float64(count[opBatch]) / 20000; f < 0.015 || f > 0.025 {
		t.Fatalf("batch share %.3f, want about %.2f", f, serveMixShape.batchShare)
	}
}

func TestChecksumIgnoresOrderAndRepeats(t *testing.T) {
	a, b := newChecksum(), newChecksum()
	a.add("x", 1, 2.5)
	a.add("y", 3)
	b.add("y", 3)
	b.add("x", 1, 2.5)
	b.add("x", 9) // a repeat of a key keeps the first value
	if a.sum() != b.sum() {
		t.Fatal("checksum depends on insertion order or repeats")
	}
	b.add("z", 0)
	if a.sum() == b.sum() {
		t.Fatal("checksum ignores a new key")
	}
}

func TestToRef(t *testing.T) {
	cpu := []time.Duration{10 * time.Millisecond, 4 * time.Millisecond}
	if got := toRef(cpu, calNominal, calNominal); !reflect.DeepEqual(got, cpu) {
		t.Fatalf("at nominal speed %v, want %v", got, cpu)
	}
	// Calibrations at 1x and 3x nominal: the host ran at half speed.
	want := []time.Duration{5 * time.Millisecond, 2 * time.Millisecond}
	if got := toRef(cpu, calNominal, 3*calNominal); !reflect.DeepEqual(got, want) {
		t.Fatalf("at half speed %v, want %v", got, want)
	}
}

// A workload with a nominal cycle time runs a fixed number of whole
// cycles, however fast its operations are.
func TestRunFixedCycles(t *testing.T) {
	w := &workload{
		cycle:     3,
		cycleTime: time.Second,
		op: func(context.Context, int) (int64, func() error, error) {
			return 1, nil, nil
		},
	}
	win := w.run(2400*time.Millisecond, nil)
	if win.attempted != 6 {
		t.Fatalf("2.4s of 1s cycles ran %d ops, want 2 cycles of 3", win.attempted)
	}
	if len(win.ref) != 6 || len(win.cal) < 2 {
		t.Fatalf("%d of 6 ops scaled to reference speed by %d calibrations", len(win.ref), len(win.cal))
	}
	if win := w.run(100*time.Millisecond, nil); win.attempted != 3 {
		t.Fatalf("a short window ran %d ops, want 1 whole cycle", win.attempted)
	}
	if w.next != 9 {
		t.Fatalf("sequence at %d, want 9", w.next)
	}
}
