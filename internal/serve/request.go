// Package serve is the concurrent analysis service over the MAESTRO
// cost model: an HTTP JSON API wrapping the analytical engines, the
// Table 3 dataflow library, the model zoo, and the design-space
// exploration tool. Requests are canonicalized and hashed into a
// sharded LRU result cache with a singleflight layer, executed on a
// bounded worker pool with queue-depth backpressure, and observed
// through an in-process Prometheus-text metrics registry.
package serve

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/dataflow"
	"repro/internal/dataflows"
	"repro/internal/hw"
	"repro/internal/models"
	"repro/internal/noc"
	"repro/internal/tensor"
)

// errBadRequest tags request-decoding and -resolution failures that are
// the caller's fault; handlers map it (and the model's typed validation
// errors) to HTTP 400.
var errBadRequest = fmt.Errorf("bad request")

func badRequestf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errBadRequest, fmt.Sprintf(format, args...))
}

// LayerSpec names a model-zoo layer (Model + Name) or describes a shape
// inline. Y and X are input coordinates, as in the DSL.
type LayerSpec struct {
	Model string `json:"model,omitempty"`
	Name  string `json:"name,omitempty"`

	Op string `json:"op,omitempty"` // CONV2D, DWCONV, PWCONV, FC, TRCONV, POOL, GEMM
	N  int    `json:"n,omitempty"`
	K  int    `json:"k,omitempty"`
	C  int    `json:"c,omitempty"`
	Y  int    `json:"y,omitempty"`
	X  int    `json:"x,omitempty"`
	R  int    `json:"r,omitempty"`
	S  int    `json:"s,omitempty"`

	StrideY int `json:"stride_y,omitempty"`
	StrideX int `json:"stride_x,omitempty"`

	// Densities are non-zero fractions per tensor for the sparsity
	// model; omitted values mean dense.
	InputDensity  float64 `json:"input_density,omitempty"`
	WeightDensity float64 `json:"weight_density,omitempty"`
	OutputDensity float64 `json:"output_density,omitempty"`
}

// DataflowSpec selects a Table 3 dataflow by name or carries a custom
// directive list in the DSL.
type DataflowSpec struct {
	Name string `json:"name,omitempty"`
	DSL  string `json:"dsl,omitempty"`
}

// NoCSpec describes one NoC level.
type NoCSpec struct {
	// Kind is one of bus, crossbar, mesh, systolic, tree; empty means
	// bus.
	Kind string `json:"kind,omitempty"`
	// Bandwidth is the pipe width in elements per cycle (bus) or the
	// endpoint count (crossbar/mesh/systolic/tree presets).
	Bandwidth float64 `json:"bandwidth,omitempty"`
	// Multicast/Reduction override the preset capability flags.
	Multicast *bool `json:"multicast,omitempty"`
	Reduction *bool `json:"reduction,omitempty"`
	Channels  int   `json:"channels,omitempty"`
}

// HWSpec selects a preset accelerator (Accel256, MAERI64, Eyeriss168)
// and/or overrides individual parameters.
type HWSpec struct {
	Preset string `json:"preset,omitempty"`

	NumPEs           int     `json:"num_pes,omitempty"`
	VectorWidth      int     `json:"vector_width,omitempty"`
	L1Bytes          int64   `json:"l1_bytes,omitempty"`
	L2Bytes          int64   `json:"l2_bytes,omitempty"`
	OffchipBandwidth float64 `json:"offchip_bandwidth,omitempty"`
	ElemBytes        int     `json:"elem_bytes,omitempty"`
	ClockGHz         float64 `json:"clock_ghz,omitempty"`
	SparseImbalance  bool    `json:"sparse_imbalance,omitempty"`

	NoCs []NoCSpec `json:"nocs,omitempty"`
}

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	Layer    LayerSpec    `json:"layer"`
	Dataflow DataflowSpec `json:"dataflow"`
	HW       HWSpec       `json:"hw"`

	// TimeoutMs bounds this request's wall time (default: server
	// option). The analysis itself is not cancelled mid-flight; a timed
	// out request still populates the cache for later retries.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// NoCache bypasses the result cache: the computation runs on the
	// pool without reading, writing or coalescing through the cache.
	NoCache bool `json:"no_cache,omitempty"`
}

// EnergyJSON is the per-component energy breakdown in pJ.
type EnergyJSON struct {
	MAC    float64 `json:"mac"`
	L1     float64 `json:"l1"`
	L2     float64 `json:"l2"`
	NoC    float64 `json:"noc"`
	DRAM   float64 `json:"dram"`
	OnChip float64 `json:"on_chip"`
	Total  float64 `json:"total"`
}

// ReuseJSON is the per-tensor reuse factor (L1 accesses per L2 fetch).
type ReuseJSON struct {
	Input  float64 `json:"input"`
	Weight float64 `json:"weight"`
	Output float64 `json:"output"`
}

// AnalyzeResponse is the body of a successful analysis.
type AnalyzeResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`

	Layer    string `json:"layer"`
	Dataflow string `json:"dataflow"`
	HW       string `json:"hw"`

	Runtime       int64   `json:"runtime_cycles"`
	OnChipRuntime int64   `json:"on_chip_runtime_cycles"`
	MACs          int64   `json:"macs"`
	UsedPEs       int     `json:"used_pes"`
	Utilization   float64 `json:"utilization"`
	Throughput    float64 `json:"throughput_macs_per_cycle"`
	Bottleneck    string  `json:"bottleneck"`

	L1ReqBytes int64   `json:"l1_req_bytes"`
	L2ReqBytes int64   `json:"l2_req_bytes"`
	DRAMReads  int64   `json:"dram_reads"`
	DRAMWrites int64   `json:"dram_writes"`
	PeakBWGBps float64 `json:"peak_bw_gbps"`
	L2Spill    bool    `json:"l2_spill,omitempty"`

	Energy EnergyJSON `json:"energy_pj"`
	Reuse  ReuseJSON  `json:"reuse_factor"`

	// ComputeMicros is the model-evaluation time of the miss that
	// produced this entry (0 only if the clock did not advance).
	ComputeMicros int64 `json:"compute_micros,omitempty"`
}

// BatchRequest is the body of POST /v1/analyze/batch.
type BatchRequest struct {
	Requests []AnalyzeRequest `json:"requests"`
	// TimeoutMs bounds the whole batch.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// BatchItem is one batch result, at the same index as its request.
type BatchItem struct {
	Index  int              `json:"index"`
	Error  string           `json:"error,omitempty"`
	Result *AnalyzeResponse `json:"result,omitempty"`
}

// BatchResponse preserves request order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// zooNames returns the zoo model names sorted; the registry itself
// lives in the models package and is shared with the CLI.
func zooNames() []string { return models.Zoo() }

// dataflowNames returns the Table 3 dataflow names in plotting order.
func dataflowNames() []string { return append([]string(nil), dataflows.Names...) }

// presetNames returns the hardware preset names sorted.
func presetNames() []string {
	names := make([]string, 0, len(presets))
	for n := range presets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// resolveLayer converts a LayerSpec to a concrete layer.
func resolveLayer(ls LayerSpec) (tensor.Layer, error) {
	if ls.Model != "" {
		if li, ok := models.ZooLayer(ls.Model, ls.Name); ok {
			return li.Layer, nil
		}
		if _, ok := models.ByName(ls.Model); !ok {
			return tensor.Layer{}, badRequestf("unknown model %q (have %s)",
				ls.Model, strings.Join(zooNames(), ", "))
		}
		if ls.Name == "" {
			return tensor.Layer{}, badRequestf("model %q needs a layer name", ls.Model)
		}
		return tensor.Layer{}, badRequestf("model %q has no layer %q", ls.Model, ls.Name)
	}
	op := tensor.Conv2D
	if ls.Op != "" {
		var err error
		op, err = tensor.ParseOpType(ls.Op)
		if err != nil {
			return tensor.Layer{}, badRequestf("%v", err)
		}
	}
	name := ls.Name
	if name == "" {
		name = "layer"
	}
	l := tensor.Layer{
		Name: name, Op: op,
		Sizes: tensor.Sizes{
			tensor.N: ls.N, tensor.K: ls.K, tensor.C: ls.C,
			tensor.Y: ls.Y, tensor.X: ls.X, tensor.R: ls.R, tensor.S: ls.S,
		},
		StrideY: ls.StrideY, StrideX: ls.StrideX,
	}
	l.Density[tensor.Input] = ls.InputDensity
	l.Density[tensor.Weight] = ls.WeightDensity
	l.Density[tensor.Output] = ls.OutputDensity
	l = l.Normalize()
	if err := l.Validate(); err != nil {
		return tensor.Layer{}, err
	}
	return l, nil
}

// resolveDataflow converts a DataflowSpec.
func resolveDataflow(ds DataflowSpec) (dataflow.Dataflow, error) {
	if ds.DSL != "" {
		name := ds.Name
		if name == "" {
			name = "custom"
		}
		df, err := dataflow.ParseDataflow(name, ds.DSL)
		if err != nil {
			return dataflow.Dataflow{}, badRequestf("dataflow DSL: %v", err)
		}
		return df, nil
	}
	if ds.Name == "" {
		return dataflow.Dataflow{}, badRequestf("dataflow needs a name or a dsl")
	}
	if _, ok := dataflows.Sources[ds.Name]; !ok {
		return dataflow.Dataflow{}, badRequestf("unknown dataflow %q (have %s)",
			ds.Name, strings.Join(dataflows.Names, ", "))
	}
	return dataflows.Get(ds.Name), nil
}

// presets maps HW preset names to constructors.
var presets = map[string]func() hw.Config{
	"Accel256":   hw.Accel256,
	"MAERI64":    hw.MAERI64,
	"Eyeriss168": hw.Eyeriss168,
}

// resolveNoC converts one NoCSpec.
func resolveNoC(ns NoCSpec) (noc.Model, error) {
	var m noc.Model
	n := int(ns.Bandwidth)
	switch ns.Kind {
	case "", "bus":
		bw := ns.Bandwidth
		if bw == 0 {
			bw = 16
		}
		m = noc.Bus(bw)
	case "crossbar":
		m = noc.Crossbar(n)
	case "mesh":
		m = noc.Mesh(n)
	case "systolic":
		m = noc.SystolicRow(n)
	case "tree":
		m = noc.Tree(n)
	default:
		return noc.Model{}, badRequestf("unknown noc kind %q", ns.Kind)
	}
	if ns.Multicast != nil {
		m.Multicast = *ns.Multicast
	}
	if ns.Reduction != nil {
		m.Reduction = *ns.Reduction
	}
	if ns.Channels != 0 {
		m.Channels = ns.Channels
	}
	return m, nil
}

// resolveHW converts an HWSpec: preset first, overrides on top.
func resolveHW(hs HWSpec) (hw.Config, error) {
	var cfg hw.Config
	if hs.Preset != "" {
		ctor, ok := presets[hs.Preset]
		if !ok {
			names := make([]string, 0, len(presets))
			for n := range presets {
				names = append(names, n)
			}
			sort.Strings(names)
			return hw.Config{}, badRequestf("unknown hw preset %q (have %s)",
				hs.Preset, strings.Join(names, ", "))
		}
		cfg = ctor()
	} else {
		cfg.Name = "custom"
		if hs.NumPEs == 0 {
			return hw.Config{}, badRequestf("hw needs a preset or num_pes")
		}
	}
	if hs.NumPEs != 0 {
		cfg.NumPEs = hs.NumPEs
	}
	if hs.VectorWidth != 0 {
		cfg.VectorWidth = hs.VectorWidth
	}
	if hs.L1Bytes != 0 {
		cfg.L1Size = hs.L1Bytes
	}
	if hs.L2Bytes != 0 {
		cfg.L2Size = hs.L2Bytes
	}
	if hs.OffchipBandwidth != 0 {
		cfg.OffchipBandwidth = hs.OffchipBandwidth
	}
	if hs.ElemBytes != 0 {
		cfg.ElemBytes = hs.ElemBytes
	}
	if hs.ClockGHz != 0 {
		cfg.ClockGHz = hs.ClockGHz
	}
	if hs.SparseImbalance {
		cfg.SparseImbalance = true
	}
	if len(hs.NoCs) > 0 {
		cfg.NoCs = nil
		for _, ns := range hs.NoCs {
			m, err := resolveNoC(ns)
			if err != nil {
				return hw.Config{}, err
			}
			cfg.NoCs = append(cfg.NoCs, m)
		}
	}
	cfg = cfg.Normalize()
	if err := cfg.Validate(); err != nil {
		return hw.Config{}, err
	}
	return cfg, nil
}

// resolved is a fully validated analysis request.
type resolved struct {
	layer tensor.Layer
	df    dataflow.Dataflow
	cfg   hw.Config
}

// resolveRequest validates and converts one AnalyzeRequest.
func resolveRequest(req AnalyzeRequest) (resolved, error) {
	layer, err := resolveLayer(req.Layer)
	if err != nil {
		return resolved{}, err
	}
	df, err := resolveDataflow(req.Dataflow)
	if err != nil {
		return resolved{}, err
	}
	cfg, err := resolveHW(req.HW)
	if err != nil {
		return resolved{}, err
	}
	return resolved{layer: layer, df: df, cfg: cfg}, nil
}
