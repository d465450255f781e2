package fleet

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/dse"
	"repro/internal/obs"
	"repro/internal/serve"
)

// FusionShardResult is one merged fusion chunk, streamed via
// Options.OnFusionShard.
type FusionShardResult struct {
	Shard    int
	Of       int
	Host     string // node that produced the result ("" when unknown)
	Replayed bool   // true when restored from the checkpoint journal
	Resp     *serve.FusionResponse
}

// FusionResult is a completed distributed fusion sweep: every priced
// (budget, granularity) point in canonical order plus the least-DRAM
// point, with at-most-once counters aggregated across shards.
type FusionResult struct {
	Model  string
	MACs   int64
	Points []dse.FusionPoint
	Best   *dse.FusionPoint

	Raw   int64
	Valid int64

	Counters
}

// SweepFusion partitions req's L2 budget grid, dispatches the shards
// across the fleet's nodes, and merges the results into one sweep over
// the full (budget x granularity) plane. The granularity axis stays
// whole per shard; every cell tunes the same layers whatever its
// budget, so a shard's cells share its node's warm profile cache.
// Shard i prefers host i mod n and fails over along the host list;
// the scheduler, journal and limits are Sweep's. SweepFusion blocks
// until every shard completes, the context is cancelled, a node refuses
// a shard with a hard 4xx, or a shard exhausts its failover budget.
func (f *Fleet) SweepFusion(ctx context.Context, req serve.FusionRequest) (*FusionResult, error) {
	req = req.WithDefaults()
	chunks := dse.PartitionFusionGrid(req.L2Grid, len(f.opts.Hosts)*f.opts.ShardsPerNode)
	if len(chunks) == 0 {
		return nil, fmt.Errorf("fleet: fusion sweep of %q has an empty budget grid", req.Model)
	}
	hash, err := sweepHashFusion(req)
	if err != nil {
		return nil, fmt.Errorf("fleet: hashing fusion request: %w", err)
	}
	hosts := f.opts.Hosts
	runs := make([]*shardRun, len(chunks))
	for i, chunk := range chunks {
		sreq := req
		sreq.L2Grid = chunk
		sreq.Shard = &serve.FusionShard{Index: i, Of: len(chunks)}
		hreq := sreq
		hreq.TimeoutMs = 0
		hreq.NoCache = false
		shash, err := canonicalHash(journalKindFusion, hreq)
		if err != nil {
			return nil, fmt.Errorf("fleet: hashing fusion shard request: %w", err)
		}
		route := make([]string, len(hosts))
		for k := range hosts {
			route[k] = hosts[(i+k)%len(hosts)]
		}
		runs[i] = &shardRun{shard: dse.Shard{Index: i, Of: len(chunks)}, req: sreq, route: route, hash: shash}
	}

	var res FusionResult
	res.Counters, err = f.run(ctx, sweepSpec{
		kind: journalKindFusion, hash: hash, runs: runs,
		attrs: []obs.Attr{obs.String("model", req.Model)},
		merge: func(rec *journalRecord) {
			resp := rec.Fusion
			res.Model, res.MACs = resp.Model, resp.MACs
			res.Raw += resp.Raw
			res.Valid += resp.Valid
			for _, pj := range resp.Points {
				res.Points = append(res.Points, fusionPointFrom(pj))
			}
		},
		stream: func(sr *shardRun, rec *journalRecord, replayed bool) {
			if cb := f.opts.OnFusionShard; cb != nil {
				cb(FusionShardResult{Shard: sr.shard.Index, Of: sr.shard.Of, Host: rec.Host, Replayed: replayed, Resp: rec.Fusion})
			}
		},
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(res.Points, func(a, b int) bool {
		pa, pb := res.Points[a], res.Points[b]
		if pa.L2Bytes != pb.L2Bytes {
			return pa.L2Bytes < pb.L2Bytes
		}
		return pa.MaxGroupLayers < pb.MaxGroupLayers
	})
	if best, ok := dse.BestFusion(res.Points); ok {
		res.Best = &best
	}
	return &res, nil
}

// fusionPointFrom converts the wire point back to the dse type.
func fusionPointFrom(j serve.FusionPointJSON) dse.FusionPoint {
	return dse.FusionPoint{
		L2Bytes:        j.L2Bytes,
		MaxGroupLayers: j.MaxGroupLayers,
		FusedGroups:    j.FusedGroups,
		DRAMTraffic:    j.DRAMTraffic,
		BaselineDRAM:   j.BaselineDRAM,
		DRAMSaved:      j.DRAMSaved,
		ActTraffic:     j.ActTraffic,
		BaselineAct:    j.BaselineAct,
		TotalCycles:    j.TotalCycles,
		EnergyPJ:       j.EnergyPJ,
	}
}
