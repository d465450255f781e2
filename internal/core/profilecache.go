package core

import (
	"context"

	"repro/internal/canon"
	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ProfileKey identifies one (dataflow, layer, numPEs) profile: the
// SHA-256 of a canonical encoding that is independent of the dataflow's
// surface spelling and of everything in hw.Config except the PE count.
type ProfileKey [32]byte

// profileKey canonicalizes exactly the inputs Profile depends on. The
// layer name stays in the key because profiles embed the spec whose
// layer name is echoed in reports; the hardware beyond NumPEs is
// deliberately absent — that is the point of the split.
func profileKey(df dataflow.Dataflow, layer tensor.Layer, numPEs int) ProfileKey {
	return ProfileKeyFor(dataflow.Augment(df, layer), layer, numPEs)
}

// ProfileKeyFor is the canonical profile identity of a (dataflow,
// layer, numPEs) triple, given the dataflow already augmented
// (aug = dataflow.Augment(df, layer)): the key ProfileCache files that
// profile under. Callers holding many requests use it to group the ones
// that share a profile — such groups price in a single PriceBatch walk
// (see AnalyzeDataflowCachedBatchCtx) — and reuse the augmented form
// they hash for their own keys.
func ProfileKeyFor(aug dataflow.Dataflow, layer tensor.Layer, numPEs int) ProfileKey {
	b := canon.AppendString(make([]byte, 0, canon.Size), "profile")
	b = canon.AppendInt(b, int64(numPEs))
	b = canon.AppendLayer(b, layer)
	b = canon.AppendDataflow(b, aug)
	return canon.Sum(b)
}

// ProfileCache is the shared LRU+singleflight cache (internal/lru)
// filled with LayerProfiles: concurrent requests for the same
// (dataflow, layer, numPEs) triple profile once and share the immutable
// result. Profiles are safe to Price concurrently, so one cached entry
// serves any number of hardware points at once.
type ProfileCache struct {
	*lru.Cache[ProfileKey, *LayerProfile]
}

// DefaultProfileCache is the package-level cache shared by the tuner and
// the analysis service, sized for a full model zoo × dataflow × PE-grid
// sweep.
var DefaultProfileCache = NewProfileCache(4096)

// NewProfileCache builds a cache holding up to capacity profiles across
// its shards. A non-positive capacity disables storage (every request
// profiles; singleflight still coalesces concurrent duplicates).
func NewProfileCache(capacity int) *ProfileCache {
	return &ProfileCache{lru.New[ProfileKey, *LayerProfile](capacity)}
}

// ProfileDataflow returns the profile for (df, layer, numPEs), resolving
// and profiling on a miss with at most one walk across concurrent
// callers. The second return reports whether the profile came from the
// LRU (callers that joined an in-flight computation report false, like
// the serve cache's Do). Errors (e.g. an unresolvable mapping) are not
// cached.
func (c *ProfileCache) ProfileDataflow(df dataflow.Dataflow, layer tensor.Layer, numPEs int) (*LayerProfile, bool, error) {
	return c.ProfileDataflowCtx(context.Background(), df, layer, numPEs)
}

// ProfileDataflowCtx is ProfileDataflow with observability: cache hits,
// misses, and singleflight waits are recorded as events on the current
// obs span, and a miss runs the cluster walk under a "core.profile"
// span, so a trace shows exactly which requests paid for profiling and
// which rode the cache.
func (c *ProfileCache) ProfileDataflowCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, numPEs int) (*LayerProfile, bool, error) {
	f := c.Begin(profileKey(df, layer, numPEs), func() (*LayerProfile, error) {
		obs.SpanFrom(ctx).Event("profile_cache.miss")
		spec, err := dataflow.Resolve(df, layer, numPEs)
		if err != nil {
			return nil, err
		}
		return ProfileCtx(ctx, spec)
	})
	if f.Outcome == lru.Joined {
		_, wait := obs.Start(ctx, "core.profilecache.wait")
		p, err := f.Wait()
		wait.End()
		obs.SpanFrom(ctx).Event("profile_cache.coalesced")
		return p, false, err
	}
	if f.Outcome == lru.Hit {
		obs.SpanFrom(ctx).Event("profile_cache.hit")
	}
	p, err := f.Wait()
	return p, f.Outcome == lru.Hit, err
}

// ProfileDataflow resolves and profiles through the package-level cache.
func ProfileDataflow(df dataflow.Dataflow, layer tensor.Layer, numPEs int) (*LayerProfile, error) {
	p, _, err := DefaultProfileCache.ProfileDataflow(df, layer, numPEs)
	return p, err
}

// AnalyzeDataflowCached is the drop-in cached variant of AnalyzeDataflow:
// it fetches (or builds) the hardware-independent profile through the
// package-level cache and prices it under cfg, so callers varying only
// the hardware configuration share one cluster walk.
func AnalyzeDataflowCached(df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) (*Result, error) {
	return AnalyzeDataflowCachedCtx(context.Background(), df, layer, cfg)
}

// AnalyzeDataflowCachedCtx is AnalyzeDataflowCached with the profile
// fetch and the pricing traced under ctx's obs recorder.
func AnalyzeDataflowCachedCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) (*Result, error) {
	cfg = cfg.Normalize()
	p, _, err := DefaultProfileCache.ProfileDataflowCtx(ctx, df, layer, cfg.NumPEs)
	if err != nil {
		return nil, err
	}
	return p.PriceCtx(ctx, cfg)
}

// AnalyzeDataflowCachedBatch prices many hardware configurations of one
// (dataflow, layer) pair with a single profile fetch and one batch walk.
func AnalyzeDataflowCachedBatch(df dataflow.Dataflow, layer tensor.Layer, cfgs []hw.Config) ([]*Result, error) {
	return AnalyzeDataflowCachedBatchCtx(context.Background(), df, layer, cfgs)
}

// AnalyzeDataflowCachedBatchCtx fetches (or builds) the profile for
// cfgs[0]'s PE count through the package-level cache and prices every
// configuration in one PriceBatch walk. The result and error contract
// is PriceBatch's: per-index results, nil slots for configurations that
// failed (a configuration with a different PE count simply fails its
// own slot). A profile-side failure (unresolvable mapping) fails the
// whole call.
func AnalyzeDataflowCachedBatchCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, cfgs []hw.Config) ([]*Result, error) {
	if len(cfgs) == 0 {
		return []*Result{}, nil
	}
	p, _, err := DefaultProfileCache.ProfileDataflowCtx(ctx, df, layer, cfgs[0].Normalize().NumPEs)
	if err != nil {
		return nil, err
	}
	return p.PriceBatchCtx(ctx, cfgs)
}
