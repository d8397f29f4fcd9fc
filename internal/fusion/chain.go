// Package fusion implements Orojenesis' multi-Einsum analysis (Sec. V): it
// models producer-consumer chains of GEMM-like layers, applies the Fusion
// Friendly Mapping Template (FFMT) constraints of Fig. 16/17, and derives
// data-movement bounds for tiled fusion, untiled fusion, and every chain
// segmentation, plus the attention-specific FLAT and FlashAttention
// strategies of Fig. 20.
//
// A chain is normalized to a flow of M rows: each Op consumes rows of
// width InW, contracts them against a weight-like operand, and produces
// rows of width OutW = the next op's InW. Plain GEMMs have one weight
// shared by all rows; attention BMMs have per-sequence "weights" (the K/V
// matrices), captured by RowsPerInst < M.
package fusion

import (
	"fmt"
	"strings"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/pareto"
	"repro/internal/shape"
)

// Op is one layer of a fusible chain. The json tags define the chain's
// structural encoding in workload specs (internal/workload,
// docs/workload-spec.md).
type Op struct {
	Name string `json:"name"`

	// InW and OutW are the per-row input and output widths in elements
	// (the K and N dimensions of the layer's GEMM view).
	InW  int64 `json:"in_w"`
	OutW int64 `json:"out_w"`

	// WInst is the weight footprint in elements for one instance, and
	// RowsPerInst the number of chain rows that share it. A plain GEMM
	// has one instance covering all M rows (RowsPerInst == chain M);
	// an attention BMM has one instance per sequence.
	WInst       int64 `json:"w_inst"`
	RowsPerInst int64 `json:"rows_per_inst"`

	// NoOutputTiling marks ops followed by a row-wise normalization
	// (softmax, layernorm): their output row may not be tiled by the
	// fused schedule (Sec. VII-B).
	NoOutputTiling bool `json:"no_output_tiling,omitempty"`

	// HaloRows is the number of extra trailing input rows the op needs
	// beyond the M0 rows it produces (sliding-window overlap of a
	// convolution: (R-1)*dilation for stride-1 kernels). Halo rows are
	// retained in the buffer between blocks; the chain's first op
	// re-reads them from the backing store on every traversal.
	HaloRows int64 `json:"halo_rows,omitempty"`

	// Ref is the op's un-fused Einsum, used to derive its standalone
	// ski-slope curve for the unfused baseline and for segmentation.
	Ref *einsum.Einsum `json:"ref"`
}

// Chain is a producer-consumer cascade of ops sharing the row dimension M.
type Chain struct {
	Name        string `json:"name"`
	M           int64  `json:"m"`
	ElementSize int64  `json:"element_size"`
	Ops         []Op   `json:"ops"`
}

// GEMMOp builds a chain layer for a plain GEMM with k-wide input rows and
// n-wide output rows over m chain rows.
func GEMMOp(name string, m, k, n int64) Op {
	return Op{
		Name:        name,
		InW:         k,
		OutW:        n,
		WInst:       k * n,
		RowsPerInst: m,
		Ref:         einsum.GEMM(name, m, k, n),
	}
}

// ConvOp builds a chain layer for a stride-1, same-padded 2D convolution
// fused at output-row granularity (the classic fused-layer CNN dataflow):
// the chain's M dimension is the output height P, each row carries
// Q*C input and Q*N output elements, and the sliding window adds
// (R-1)*dilation halo rows. The output row is never tiled (row-granular
// fusion), which keeps channel reductions free of partial sums.
func ConvOp(name string, cfg einsum.ConvConfig) Op {
	if cfg.T > 1 {
		panic(fmt.Sprintf("fusion: ConvOp %s: only stride-1 layers can share the chain's row dimension", name))
	}
	d := cfg.D
	if d == 0 {
		d = 1
	}
	return Op{
		Name:           name,
		InW:            cfg.Q * cfg.C,
		OutW:           cfg.Q * cfg.N,
		WInst:          cfg.C * cfg.N * cfg.R * cfg.S,
		RowsPerInst:    cfg.P,
		NoOutputTiling: true,
		HaloRows:       (cfg.R - 1) * d,
		Ref:            einsum.Conv2D(name, cfg),
	}
}

// AttentionQKOp builds the bmm_QK layer: per sequence of seq rows, each
// row's heads*f features are matched against the sequence's K matrix
// (heads*seq*f elements) producing heads*seq scores per row.
func AttentionQKOp(name string, instances, seq, heads, f int64) Op {
	return Op{
		Name:        name,
		InW:         heads * f,
		OutW:        heads * seq,
		WInst:       heads * seq * f,
		RowsPerInst: seq,
		Ref:         einsum.BMM(name, instances*heads, seq, f, seq),
	}
}

// AttentionQKVOp builds the bmm_QKV layer: per sequence, each row's
// heads*seq attention weights contract against the sequence's V matrix
// (heads*seq*f elements) producing heads*f outputs per row.
func AttentionQKVOp(name string, instances, seq, heads, f int64) Op {
	return Op{
		Name:        name,
		InW:         heads * seq,
		OutW:        heads * f,
		WInst:       heads * seq * f,
		RowsPerInst: seq,
		Ref:         einsum.BMM(name, instances*heads, seq, seq, f),
	}
}

// FromEinsums assembles a chain from a sequence of GEMM Einsums (ranks
// M, K, N) whose M dimensions match and whose N feeds the successor's K —
// the textual-workload path into the fusion engine.
func FromEinsums(name string, es ...*einsum.Einsum) (*Chain, error) {
	if len(es) == 0 {
		return nil, fmt.Errorf("fusion: FromEinsums: no einsums")
	}
	var ops []Op
	var m int64
	for i, e := range es {
		if err := e.Validate(); err != nil {
			return nil, err
		}
		var mk, kk, nk int64
		for _, r := range e.Ranks {
			switch r.Name {
			case "M":
				mk = r.Shape
			case "K":
				kk = r.Shape
			case "N":
				nk = r.Shape
			default:
				return nil, fmt.Errorf("fusion: FromEinsums: %s has non-GEMM rank %s", e.Name, r.Name)
			}
		}
		if mk == 0 || kk == 0 || nk == 0 {
			return nil, fmt.Errorf("fusion: FromEinsums: %s is not a GEMM (needs ranks M, K, N)", e.Name)
		}
		if i == 0 {
			m = mk
		} else if mk != m {
			return nil, fmt.Errorf("fusion: FromEinsums: %s has M=%d, chain has M=%d", e.Name, mk, m)
		}
		ops = append(ops, GEMMOp(e.Name, mk, kk, nk))
	}
	return NewChain(name, m, ops...)
}

// NewChain assembles and validates a chain.
func NewChain(name string, m int64, ops ...Op) (*Chain, error) {
	c := &Chain{Name: name, M: m, ElementSize: einsum.DefaultElementSize, Ops: ops}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// MustChain is NewChain that panics on error, for static workload tables.
func MustChain(name string, m int64, ops ...Op) *Chain {
	c, err := NewChain(name, m, ops...)
	if err != nil {
		panic(err)
	}
	return c
}

// Validate checks chain consistency: positive shapes, matching
// producer/consumer row widths, and instance rows dividing M.
func (c *Chain) Validate() error {
	if c.M < 1 {
		return fmt.Errorf("fusion: chain %s: M = %d", c.Name, c.M)
	}
	if c.ElementSize < 1 {
		return fmt.Errorf("fusion: chain %s: element size %d", c.Name, c.ElementSize)
	}
	if len(c.Ops) == 0 {
		return fmt.Errorf("fusion: chain %s: no ops", c.Name)
	}
	for i := range c.Ops {
		op := &c.Ops[i]
		if op.InW < 1 || op.OutW < 1 || op.WInst < 1 {
			return fmt.Errorf("fusion: chain %s op %s: non-positive shape", c.Name, op.Name)
		}
		if op.HaloRows < 0 {
			return fmt.Errorf("fusion: chain %s op %s: negative halo rows %d", c.Name, op.Name, op.HaloRows)
		}
		if op.RowsPerInst < 1 || c.M%op.RowsPerInst != 0 {
			return fmt.Errorf("fusion: chain %s op %s: RowsPerInst %d does not divide M %d",
				c.Name, op.Name, op.RowsPerInst, c.M)
		}
		if i > 0 && c.Ops[i-1].OutW != op.InW {
			return fmt.Errorf("fusion: chain %s: op %s OutW %d != op %s InW %d",
				c.Name, c.Ops[i-1].Name, c.Ops[i-1].OutW, op.Name, op.InW)
		}
		if op.Ref == nil {
			return fmt.Errorf("fusion: chain %s op %s: missing reference einsum", c.Name, op.Name)
		}
	}
	return nil
}

// Len returns the number of ops in the chain.
func (c *Chain) Len() int { return len(c.Ops) }

// Canonical renders a complete, deterministic encoding of the chain — M,
// element size, and every op's template-relevant fields — for workload
// digests (internal/shard): two chains with equal Canonical strings have
// identical FFMT template spaces and identical tiled-fusion curves.
func (c *Chain) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chain{name=%s m=%d es=%d ops=[", c.Name, c.M, c.ElementSize)
	for i := range c.Ops {
		op := &c.Ops[i]
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s{in=%d out=%d winst=%d rows=%d notile=%t halo=%d}",
			op.Name, op.InW, op.OutW, op.WInst, op.RowsPerInst, op.NoOutputTiling, op.HaloRows)
	}
	b.WriteString("]}")
	return b.String()
}

// Instances returns the number of weight instances of op e.
func (c *Chain) Instances(e int) int64 { return c.M / c.Ops[e].RowsPerInst }

// WeightTotalElements returns the total weight footprint of op e across
// all instances.
func (c *Chain) WeightTotalElements(e int) int64 {
	return shape.Product(c.Instances(e), c.Ops[e].WInst)
}

// FusedAlgoMinBytes is the fused algorithmic minimum: first input read
// once, all weights read once, last output written once — intermediates
// never touch the backing store.
func (c *Chain) FusedAlgoMinBytes() int64 {
	elems := shape.Product(c.M, c.Ops[0].InW) + shape.Product(c.M, c.Ops[len(c.Ops)-1].OutW)
	for e := range c.Ops {
		elems += c.WeightTotalElements(e)
	}
	return elems * c.ElementSize
}

// UnfusedAlgoMinBytes is the conventional algorithmic minimum of executing
// each op separately: every intermediate is written and re-read.
func (c *Chain) UnfusedAlgoMinBytes() int64 {
	var elems int64
	for e := range c.Ops {
		elems += c.Ops[e].Ref.AlgorithmicMinElements()
	}
	return elems * c.ElementSize
}

// IntermediateBytes returns the total size of all intermediate tensors.
func (c *Chain) IntermediateBytes() int64 {
	var elems int64
	for e := 0; e < len(c.Ops)-1; e++ {
		elems += shape.Product(c.M, c.Ops[e].OutW)
	}
	return elems * c.ElementSize
}

// Sub returns the sub-chain spanning ops [lo, hi).
func (c *Chain) Sub(lo, hi int) *Chain {
	if lo < 0 || hi > len(c.Ops) || lo >= hi {
		panic(fmt.Sprintf("fusion: Sub(%d,%d) of %d-op chain", lo, hi, len(c.Ops)))
	}
	return &Chain{
		Name:        fmt.Sprintf("%s[%d:%d]", c.Name, lo, hi),
		M:           c.M,
		ElementSize: c.ElementSize,
		Ops:         c.Ops[lo:hi],
	}
}

// PerOpCurves derives the standalone ski-slope curve of every op.
func (c *Chain) PerOpCurves(opts bound.Options) []*pareto.Curve {
	out := make([]*pareto.Curve, len(c.Ops))
	for e := range c.Ops {
		out[e] = bound.Derive(c.Ops[e].Ref, opts).Curve
	}
	return out
}

// UnfusedCurve is the paper's purple baseline: each op mapped optimally in
// isolation and executed back to back through the shared buffer.
func UnfusedCurve(perOp []*pareto.Curve) *pareto.Curve {
	return pareto.Sum(perOp...)
}
