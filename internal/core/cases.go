package core

import (
	"repro/internal/reuse"
	"repro/internal/tensor"
)

// loopClass is one choice for a loop's position within a data-iteration
// case: whether the loop sits at its first index, at its final index, and
// how many concrete steps the choice covers.
type loopClass struct {
	first bool
	last  bool
	count int64
}

// caseEnum enumerates the data-iteration cases of one cluster level
// (Figure 8's ExtractDataIterationCases). It owns the scratch slices the
// enumeration walks over, so the per-case callbacks allocate nothing:
// one caseEnum serves every case of one profileLevel call.
type caseEnum struct {
	a     *reuse.Analysis
	loops []reuse.Loop

	cls     []loopClass   // current class assignment, reused across cases
	choices [][]loopClass // per-loop choice lists, reused across advs
	single  []loopClass   // per-loop reset/single-step class (first, last iff 1 step)
}

func newCaseEnum(a *reuse.Analysis) *caseEnum {
	n := len(a.Loops)
	en := &caseEnum{
		a:       a,
		loops:   a.Loops,
		cls:     make([]loopClass, n),
		choices: make([][]loopClass, n),
		single:  make([]loopClass, n),
	}
	for i, lp := range a.Loops {
		en.single[i] = loopClass{first: true, last: lp.Steps == 1, count: 1}
	}
	return en
}

// start returns the class assignment of the level's very first step:
// every loop at its first index.
func (en *caseEnum) start() []loopClass {
	copy(en.cls, en.single)
	return en.cls
}

// enumerate crosses the class choices of the loops outside adv with the
// arrival classes of adv itself and invokes process for each combination.
// The cls slice passed to process is owned by the enumerator and only
// valid for the duration of the call.
func (en *caseEnum) enumerate(adv int, process func(adv int, cls []loopClass, occ int64) error) error {
	for i, lp := range en.loops {
		switch {
		case i > adv || lp.Steps < 2:
			// Inner loops reset to their first index; single-step loops
			// have one position that is both first and last.
			en.choices[i] = en.single[i : i+1 : i+1]
		case i == adv:
			en.choices[i] = arrivalClasses(lp, splitLast(en.a, en.loops, i))
		default:
			en.choices[i] = outerClasses(lp, splitLast(en.a, en.loops, i),
				!en.a.Affects(tensor.Output, i))
		}
	}
	var walk func(i int, occ int64) error
	walk = func(i int, occ int64) error {
		if i == len(en.loops) {
			return process(adv, en.cls, occ)
		}
		for _, ch := range en.choices[i] {
			en.cls[i] = ch
			if err := walk(i+1, occ*ch.count); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0, 1)
}

// splitLast reports whether a loop's final index must be distinguished
// from its steady ones: it carries an edge chunk, changes the active
// sub-cluster count (final fold), or gates output finality (reduction
// loop).
func splitLast(a *reuse.Analysis, loops []reuse.Loop, i int) bool {
	lp := loops[i]
	if lp.IsFold {
		return true
	}
	return lp.Map.HasEdge() || !a.Affects(tensor.Output, i)
}

// arrivalClasses enumerates where an advancing loop lands: indices
// 1..T-1, with the final index split out when it matters.
func arrivalClasses(lp reuse.Loop, split bool) []loopClass {
	t := int64(lp.Steps)
	if !split {
		return []loopClass{{count: t - 1}}
	}
	cls := []loopClass{{last: true, count: 1}}
	if t > 2 {
		cls = append(cls, loopClass{count: t - 2})
	}
	return cls
}

// outerClasses enumerates an outer loop's position: first/steady/final,
// with first split out only for reduction loops (it gates partial-sum
// re-reads) and final split out when splitLast says so.
func outerClasses(lp reuse.Loop, splitLastIdx, splitFirst bool) []loopClass {
	t := int64(lp.Steps)
	switch {
	case splitFirst && splitLastIdx:
		cls := []loopClass{{first: true, count: 1}, {last: true, count: 1}}
		if t > 2 {
			cls = append(cls, loopClass{count: t - 2})
		}
		return cls
	case splitFirst:
		cls := []loopClass{{first: true, count: 1}}
		if t > 1 {
			cls = append(cls, loopClass{count: t - 1})
		}
		return cls
	case splitLastIdx:
		cls := []loopClass{{last: true, count: 1}}
		if t > 1 {
			cls = append(cls, loopClass{count: t - 1})
		}
		return cls
	default:
		return []loopClass{{count: t}}
	}
}

func max3(a, b, c int64) int64 {
	if b > a {
		a = b
	}
	if c > a {
		a = c
	}
	return a
}
