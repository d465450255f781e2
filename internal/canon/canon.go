// Package canon is the one canonical binary encoding behind every cache
// and routing key: the engine's profile cache, the serve result cache
// (analyze, DSE and fusion entries) and the fleet's shard routing.
//
// A key is the SHA-256 of a byte string built with the Append
// functions: strings are length-prefixed, integers are varints and
// floats are their IEEE-754 bits, so no field bleeds into its
// neighbour and nothing is formatted on the key path. Every key starts
// with a tag string naming its kind, so keys of different kinds never
// collide.
//
// Two values encode to the same bytes exactly when they are the same
// canonical value: a layer is encoded field by field as given (callers
// pass it normalized), a dataflow is expected in its dataflow.Augment
// form, and a hardware configuration omits the presentation-only names
// (hw.Config.Name, noc.Model.Name). A Cluster directive carries only
// its size, and every NaN encodes as one value.
package canon

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"repro/internal/dataflow"
	"repro/internal/hw"
	"repro/internal/tensor"
)

// Size is a buffer capacity that holds a typical key encoding (a
// layer, an augmented multi-level dataflow and a hardware
// configuration) without growing; callers start from
// make([]byte, 0, canon.Size) so the buffer can live on the stack.
const Size = 512

// Sum returns the SHA-256 digest of an encoding.
func Sum(b []byte) [32]byte { return sha256.Sum256(b) }

// AppendString appends s, length-prefixed.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendInt appends v as a signed varint.
func AppendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat appends the bits of f. Every NaN encodes alike; -0 and +0
// stay distinct.
func AppendFloat(b []byte, f float64) []byte {
	if f != f {
		f = math.NaN()
	}
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendInts appends the length of xs, then each element. A nil and an
// empty slice encode alike.
func AppendInts[T ~int | ~int64](b []byte, xs []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendInt(b, int64(x))
	}
	return b
}

// AppendFloats appends the length of xs, then each element.
func AppendFloats(b []byte, xs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendFloat(b, x)
	}
	return b
}

// AppendStrings appends the length of xs, then each element.
func AppendStrings(b []byte, xs []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = AppendString(b, x)
	}
	return b
}

// AppendLayer appends every field of a layer: name, operator, the seven
// dimension sizes, strides and per-tensor densities.
func AppendLayer(b []byte, l tensor.Layer) []byte {
	b = AppendString(b, l.Name)
	b = append(b, byte(l.Op))
	for _, v := range l.Sizes {
		b = AppendInt(b, int64(v))
	}
	b = AppendInt(b, int64(l.StrideY))
	b = AppendInt(b, int64(l.StrideX))
	for _, d := range l.Density {
		b = AppendFloat(b, d)
	}
	return b
}

// Directive tags. Any map kind other than Spatial is a TemporalMap, as
// in the DSL rendering.
const (
	dirTemporal byte = iota
	dirSpatial
	dirCluster
)

// AppendDataflow appends a dataflow's name and directive list. Pass the
// dataflow.Augment form: it is the one spelling every equivalent
// surface form (builder or DSL, named or inline, implicit or explicit
// maps) shares.
func AppendDataflow(b []byte, df dataflow.Dataflow) []byte {
	b = AppendString(b, df.Name)
	b = binary.AppendUvarint(b, uint64(len(df.Directives)))
	for _, d := range df.Directives {
		switch {
		case d.IsCluster:
			b = append(b, dirCluster)
			b = appendExpr(b, d.Size)
		case d.Kind == dataflow.Spatial:
			b = append(b, dirSpatial, byte(d.Dim))
			b = appendExpr(appendExpr(b, d.Size), d.Offset)
		default:
			b = append(b, dirTemporal, byte(d.Dim))
			b = appendExpr(appendExpr(b, d.Size), d.Offset)
		}
	}
	return b
}

func appendExpr(b []byte, e dataflow.SizeExpr) []byte {
	b = AppendInt(b, int64(e.Const))
	b = binary.AppendUvarint(b, uint64(len(e.Terms)))
	for _, t := range e.Terms {
		b = append(b, byte(t.Dim))
		b = AppendInt(b, int64(t.Coef))
	}
	return b
}

// AppendHW appends every priced field of a hardware configuration and
// of each NoC level; the names are left out.
func AppendHW(b []byte, cfg hw.Config) []byte {
	b = AppendInt(b, int64(cfg.NumPEs))
	b = AppendInt(b, int64(cfg.VectorWidth))
	b = AppendInt(b, cfg.L1Size)
	b = AppendInt(b, cfg.L2Size)
	b = AppendFloat(b, cfg.OffchipBandwidth)
	b = AppendInt(b, int64(cfg.ElemBytes))
	b = AppendFloat(b, cfg.ClockGHz)
	b = AppendBool(b, cfg.SparseImbalance)
	b = binary.AppendUvarint(b, uint64(len(cfg.NoCs)))
	for _, m := range cfg.NoCs {
		b = AppendFloat(b, m.Bandwidth)
		b = AppendInt(b, m.AvgLatency)
		b = AppendBool(b, m.Multicast)
		b = AppendBool(b, m.Reduction)
		b = AppendInt(b, int64(m.Channels))
	}
	return b
}
