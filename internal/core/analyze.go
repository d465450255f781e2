package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// Analyze runs the full performance and cost analysis of a resolved
// dataflow on a hardware configuration and returns the report. It is
// the one-shot composition of the engine's two phases: the hardware is
// validated first (an invalid configuration never pays for the walk),
// then Profile records the case DAG and Price prices it under cfg.
// Callers that price the same (dataflow, layer, PE count) more than once
// go through ProfileCache instead and share the profile.
func Analyze(spec *dataflow.Spec, cfg hw.Config) (*Result, error) {
	if _, err := checkConfig(spec, cfg); err != nil {
		return nil, err
	}
	p, err := Profile(spec)
	if err != nil {
		return nil, err
	}
	return p.Price(cfg)
}

// checkConfig normalizes and validates one hardware configuration
// against a resolved spec: the configuration must be valid and carry
// the PE count the spec was resolved for.
func checkConfig(spec *dataflow.Spec, cfg hw.Config) (hw.Config, error) {
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	if spec.NumPEs != cfg.NumPEs {
		return cfg, fmt.Errorf("%w: core: spec resolved for %d PEs but hardware has %d",
			hw.ErrInvalidConfig, spec.NumPEs, cfg.NumPEs)
	}
	return cfg, nil
}

// leafRuntime prices the PE pass: effective MACs at VectorWidth per
// cycle, stretched by the zero-skipping load imbalance when modeled.
func leafRuntime(psums, eff int64, layer tensor.Layer, cfg hw.Config) int64 {
	runtime := (eff + int64(cfg.VectorWidth) - 1) / int64(cfg.VectorWidth)
	if cfg.SparseImbalance {
		d := layer.Density[tensor.Input] * weightDensity(layer)
		runtime = int64(float64(runtime)*imbalanceFactor(psums, d, cfg.NumPEs) + 0.5)
	}
	return runtime
}

// weightDensity returns the weight density treating the pooling
// convention (density 0 = "no weight tensor") as dense compute.
func weightDensity(l tensor.Layer) float64 {
	if l.Density[tensor.Weight] == 0 {
		return 1
	}
	return l.Density[tensor.Weight]
}

// AnalyzeDataflow resolves and analyzes in one call.
func AnalyzeDataflow(df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) (*Result, error) {
	cfg = cfg.Normalize()
	spec, err := dataflow.Resolve(df, layer, cfg.NumPEs)
	if err != nil {
		return nil, err
	}
	return Analyze(spec, cfg)
}

// AnalyzeDataflowCtx is AnalyzeDataflow wrapped in one "core.analyze"
// span when ctx carries an obs recorder. The one-shot profile and price
// it runs are not attributed separately; cached analyses go through
// AnalyzeDataflowCachedCtx, which traces the profile fetch and the
// pricing as their own spans.
func AnalyzeDataflowCtx(ctx context.Context, df dataflow.Dataflow, layer tensor.Layer, cfg hw.Config) (*Result, error) {
	_, span := obs.Start(ctx, "core.analyze",
		obs.String("dataflow", df.Name),
		obs.String("layer", layer.Name))
	r, err := AnalyzeDataflow(df, layer, cfg)
	span.End()
	return r, err
}

// AnalyzeAll analyzes many layers concurrently under one dataflow and
// hardware configuration, preserving order. Per-layer failures land in
// the errors slice at the layer's index; the result slice holds nil
// there. Each analysis profiles its own layer and shares nothing
// mutable, so the fan-out is safe.
func AnalyzeAll(df dataflow.Dataflow, layers []tensor.Layer, cfg hw.Config) ([]*Result, []error) {
	results := make([]*Result, len(layers))
	errs := make([]error, len(layers))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range layers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i], errs[i] = AnalyzeDataflow(df, layers[i], cfg)
		}(i)
	}
	wg.Wait()
	return results, errs
}
