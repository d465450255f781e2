package serve

import (
	"repro/internal/canon"
	"repro/internal/dataflow"
	"repro/internal/tensor"
)

// The canonicalizer turns a resolved request into a stable cache key
// through the one binary encoder in package canon: the layer after
// normalization, the dataflow after augmentation (implicit maps made
// explicit, so any surface spelling of the same mapping — builder vs
// DSL, whitespace, named vs inline — hashes identically), and the
// hardware configuration after normalization. Each key kind starts
// with its own tag, so analyze, DSE and fusion entries never collide in
// the shared result cache.

// canonicalKey hashes a resolved analysis request, given its dataflow
// augmented against its layer (aug = dataflow.Augment(r.df, r.layer)).
// The hardware Name and NoC Names are presentation-only and excluded;
// the layer and dataflow names are kept because responses echo them.
func canonicalKey(r resolved, aug dataflow.Dataflow) Key {
	b := canon.AppendString(make([]byte, 0, canon.Size), "analyze")
	b = canon.AppendLayer(b, r.layer)
	b = canon.AppendDataflow(b, aug)
	b = canon.AppendHW(b, r.cfg)
	return canon.Sum(b)
}

// canonicalDSEKey hashes a DSE request's canonical encoding. The shard
// descriptor participates: a shard-scoped request computes a different
// space than the full sweep and must never share its cache entry.
func canonicalDSEKey(layer tensor.Layer, req DSERequest) Key {
	b := canon.AppendString(make([]byte, 0, canon.Size), "dse")
	b = canon.AppendLayer(b, layer)
	b = canon.AppendString(b, req.Template)
	b = canon.AppendInts(b, req.P1)
	b = canon.AppendInts(b, req.P2)
	b = canon.AppendInts(b, req.PEs)
	b = canon.AppendFloats(b, req.BWs)
	b = canon.AppendInts(b, req.L1Grid)
	b = canon.AppendInts(b, req.L2Grid)
	b = canon.AppendFloat(b, req.AreaBudgetMM2)
	b = canon.AppendFloat(b, req.PowerBudgetMW)
	b = canon.AppendInt(b, int64(req.TopK))
	b = canon.AppendBool(b, req.Shard != nil)
	if sh := req.Shard; sh != nil {
		b = canon.AppendInts(b, []int{sh.Index, sh.Of, sh.PEMin, sh.PEMax})
		b = canon.AppendStrings(b, sh.Mappings)
	}
	return canon.Sum(b)
}

// DSERouteKey hashes the canonical (layer, template, PE set) triple the
// fleet coordinator routes shards on. Profiles are keyed by (dataflow,
// layer, numPEs), so hashing exactly these fields — through the same
// canonical layer encoding the result cache uses — sends repeat sweeps
// of the same mapping family to the node whose ProfileCache already
// holds the cluster walks, whatever the bandwidth or buffer axes say.
func DSERouteKey(layer tensor.Layer, template string, pes []int) Key {
	b := canon.AppendString(make([]byte, 0, canon.Size), "route")
	b = canon.AppendLayer(b, layer)
	b = canon.AppendString(b, template)
	b = canon.AppendInts(b, pes)
	return canon.Sum(b)
}

// ResolveLayerSpec converts a LayerSpec into a concrete, validated
// layer — the same resolution the /v1/* handlers perform, exported for
// the fleet coordinator, which needs the layer to compute route keys
// before any request reaches a server.
func ResolveLayerSpec(ls LayerSpec) (tensor.Layer, error) { return resolveLayer(ls) }
