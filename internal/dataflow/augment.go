package dataflow

import "repro/internal/tensor"

// Augment returns the dataflow with the implicit mappings Resolve would
// add made explicit against a layer: every dimension a cluster level
// does not mention becomes a single-chunk temporal map covering the full
// layer extent, appended innermost in canonical dimension order (the
// same position and semantics the resolver's augmentation uses — the
// chunk is clipped to the sub-problem at resolution time).
//
// The augmented dataflow is the canonical form of the original: it
// resolves to the same mapping, Augment is idempotent, and the DSL
// round trip ParseDataflow(name, df.String()) reproduces it exactly.
// The analysis service hashes this form for its result cache.
func Augment(df Dataflow, layer tensor.Layer) Dataflow {
	layer = layer.Normalize()
	levels := 1
	for _, d := range df.Directives {
		if d.IsCluster {
			levels++
		}
	}
	out := Dataflow{
		Name:       df.Name,
		Directives: make([]Directive, 0, len(df.Directives)+levels*int(tensor.NumDims)),
	}
	mentioned := tensor.DimSet(0)
	for _, d := range df.Directives {
		if d.IsCluster {
			out.Directives = appendImplicit(out.Directives, mentioned, layer)
			out.Directives = append(out.Directives, ClusterOf(d.Size))
			mentioned = 0
			continue
		}
		out.Directives = append(out.Directives, d)
		mentioned = mentioned.Add(d.Dim)
	}
	out.Directives = appendImplicit(out.Directives, mentioned, layer)
	return out
}

// appendImplicit closes one cluster level: every dimension the level
// does not mention gets a full-extent single-chunk temporal map.
func appendImplicit(dirs []Directive, mentioned tensor.DimSet, layer tensor.Layer) []Directive {
	for d := tensor.Dim(0); d < tensor.NumDims; d++ {
		if !mentioned.Has(d) {
			sz := Lit(layer.Sizes.Get(d))
			dirs = append(dirs, TMap(sz, sz, d))
		}
	}
	return dirs
}
