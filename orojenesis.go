// Package orojenesis computes attainable data-movement and operational-
// intensity bounds for tensor algorithms, reproducing "Mind the Gap:
// Attainable Data Movement and Operational Intensity Bounds for Tensor
// Algorithms" (ISCA 2024).
//
// Given an un-mapped tensor algorithm — a single Einsum (GEMM,
// convolution, batched or grouped matrix multiplication) or a producer-
// consumer chain of them — the library exhaustively traverses the mapspace
// of the two-level Snowcat proxy architecture and returns a ski-slope
// curve: for every buffer capacity, the minimum backing-store traffic that
// no tiling, loop order, or fusion schedule can beat. On top of the curve
// it builds the paper's derivative models: the attainable-OI mesa, the
// roofline-based performance mesa, and the buffer-vs-compute area
// provisioning model.
//
// Quick start:
//
//	g := orojenesis.GEMM("gemm4k", 4096, 4096, 4096)
//	a, _ := orojenesis.Analyze(g, orojenesis.Options{})
//	acc, _ := a.Curve.AccessesAt(40 << 20) // bound with a 40 MB buffer
//	fmt.Println(acc, a.MaxEffectualBytes)
//
// Fusion:
//
//	chain := orojenesis.MustChain("ffn", 32768,
//	    orojenesis.GEMMOp("mm_0", 32768, 4096, 16384),
//	    orojenesis.GEMMOp("mm_1", 32768, 16384, 4096))
//	ca, _ := orojenesis.AnalyzeChain(chain, orojenesis.Options{})
//	fmt.Println(ca.Tiled.MinAccessBytes(), ca.AlgoMin)
package orojenesis

import (
	"io"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/hierarchy"
	"repro/internal/llm"
	"repro/internal/models"
	"repro/internal/multilevel"
	"repro/internal/oi"
	"repro/internal/pareto"
	"repro/internal/plotting"
	"repro/internal/search"
)

// Workload model -------------------------------------------------------

// Einsum is an un-mapped tensor computation (see internal/einsum).
type Einsum = einsum.Einsum

// ConvConfig parameterizes a 2D convolution workload.
type ConvConfig = einsum.ConvConfig

// DefaultElementSize is the operand width (bytes) used by the builders.
const DefaultElementSize = einsum.DefaultElementSize

// GEMM builds B[m,n] = A[m,k] * W[k,n].
func GEMM(name string, m, k, n int64) *Einsum { return einsum.GEMM(name, m, k, n) }

// BMM builds the batched matrix multiplication of multi-head attention.
func BMM(name string, h, m, k, n int64) *Einsum { return einsum.BMM(name, h, m, k, n) }

// GroupedBMM builds the grouped BMM of MQA/GQA; g groups must divide h.
func GroupedBMM(name string, h, g, m, k, n int64) *Einsum {
	return einsum.GroupedBMM(name, h, g, m, k, n)
}

// Conv2D builds a multi-channel 2D convolution.
func Conv2D(name string, cfg ConvConfig) *Einsum { return einsum.Conv2D(name, cfg) }

// ParseEinsum builds a workload from the paper's textual notation, e.g.
// "B[m,n] = A[m,k] * W[k,n] {M=4096,K=4096,N=4096}"; strided terms
// ("A[2p+r,...]") and grouped dims ("W[h/4,...]") are supported.
func ParseEinsum(s string) (*Einsum, error) { return einsum.Parse(s) }

// Bounds ----------------------------------------------------------------

// Options tunes the exhaustive mapspace traversal.
type Options = bound.Options

// Curve is a ski-slope Pareto frontier of (buffer bytes, access bytes).
type Curve = pareto.Curve

// Point is one Pareto-optimal point of a Curve.
type Point = pareto.Point

// Analysis is the full single-Einsum report: the ski-slope curve, the
// OI mesa, and the paper's headline scalar queries.
type Analysis struct {
	Einsum *Einsum
	Curve  *Curve
	Mesa   []MesaPoint
	Stats  bound.Stats

	AlgorithmicMinBytes int64
	TotalOperandBytes   int64
	MACs                int64
	PeakOI              float64 // MACs per element at the mesa top
	AlgorithmicOI       float64
	MaxEffectualBytes   int64
	Gap1                float64 // max effectual buffer / total operand size
}

// Analyze runs the Orojenesis flow for a single Einsum (Fig. 5):
// exhaustive Snowcat mapspace traversal, ski-slope curve, OI mesa and
// gap queries.
func Analyze(e *Einsum, opts Options) (*Analysis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	res := bound.Derive(e, opts)
	a, err := AnalyzeCurve(e, res.Curve)
	if err != nil {
		return nil, err
	}
	a.Stats = res.Stats
	return a, nil
}

// Bound derives just the ski-slope curve (the green line of Fig. 1).
func Bound(e *Einsum, opts Options) *Curve {
	return bound.Derive(e, opts).Curve
}

// AnalyzeCurve builds the full single-Einsum report from an already
// derived curve — e.g. one replayed from the durable curve store —
// without re-traversing the mapspace. Every field except Stats is a pure
// function of the Einsum and its frontier; Stats stays zero because no
// traversal ran.
func AnalyzeCurve(e *Einsum, c *Curve) (*Analysis, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	a := &Analysis{
		Einsum:              e,
		Curve:               c,
		Mesa:                oi.Mesa(c, e.MACs(), e.ElementSize),
		AlgorithmicMinBytes: e.AlgorithmicMinBytes(),
		TotalOperandBytes:   e.TotalOperandBytes(),
		MACs:                e.MACs(),
		PeakOI:              oi.PeakOI(c, e.MACs(), e.ElementSize),
		AlgorithmicOI:       e.AlgorithmicOI(),
		MaxEffectualBytes:   c.MaxEffectualBufferBytes(),
	}
	if g, ok := c.Gap1(); ok {
		a.Gap1 = g
	}
	return a, nil
}

// Gap0 returns attainable-accesses / algorithmic-minimum at a capacity.
func (a *Analysis) Gap0(bufBytes int64) (float64, bool) {
	return a.Curve.Gap0(bufBytes)
}

// OIAt returns the attainable operational intensity at a capacity.
func (a *Analysis) OIAt(bufBytes int64) (float64, bool) {
	return oi.OIAt(a.Curve, a.MACs, a.Einsum.ElementSize, bufBytes)
}

// LevelBound is a probe of a curve at one memory level's capacity.
type LevelBound = bound.LevelBound

// ProbeLevels reads a curve at multiple capacities (Fig. 7).
func ProbeLevels(c *Curve, levels map[string]int64) []LevelBound {
	return bound.ProbeLevels(c, levels)
}

// Fusion ------------------------------------------------------------------

// Chain is a producer-consumer cascade of GEMM-like layers.
type Chain = fusion.Chain

// Op is one layer of a Chain.
type Op = fusion.Op

// GEMMOp builds a chain layer for a plain GEMM.
func GEMMOp(name string, m, k, n int64) Op { return fusion.GEMMOp(name, m, k, n) }

// ConvOp builds a chain layer for a stride-1, same-padded convolution
// fused at output-row granularity (fused-layer CNN dataflow).
func ConvOp(name string, cfg ConvConfig) Op { return fusion.ConvOp(name, cfg) }

// ChainFromEinsums assembles a GEMM chain from parsed Einsums.
func ChainFromEinsums(name string, es ...*Einsum) (*Chain, error) {
	return fusion.FromEinsums(name, es...)
}

// AttentionQKOp and AttentionQKVOp build the attention BMM chain layers.
func AttentionQKOp(name string, instances, seq, heads, f int64) Op {
	return fusion.AttentionQKOp(name, instances, seq, heads, f)
}
func AttentionQKVOp(name string, instances, seq, heads, f int64) Op {
	return fusion.AttentionQKVOp(name, instances, seq, heads, f)
}

// NewChain assembles and validates a chain.
func NewChain(name string, m int64, ops ...Op) (*Chain, error) {
	return fusion.NewChain(name, m, ops...)
}

// MustChain is NewChain that panics on error.
func MustChain(name string, m int64, ops ...Op) *Chain {
	return fusion.MustChain(name, m, ops...)
}

// ChainAnalysis is the multi-Einsum report: unfused baseline, tiled and
// untiled fusion bounds, and the best segmentation.
type ChainAnalysis = fusion.ChainAnalysis

// AnalyzeChain runs the multi-Einsum Orojenesis flow for a chain of at
// least two ops (see fusion.Analyze).
func AnalyzeChain(c *Chain, opts Options) (*ChainAnalysis, error) {
	return fusion.Analyze(c, opts)
}

// TiledFusion derives the FFMT tiled-fusion bound (Sec. V).
func TiledFusion(c *Chain) (*Curve, error) { return fusion.TiledFusion(c) }

// UntiledFusion derives the fully-buffered-intermediate fusion bound.
func UntiledFusion(c *Chain) (*Curve, error) { return fusion.UntiledFusion(c) }

// PipelinedFusion derives the pipelined-execution fusion bound (Sec. V-B):
// equal access counts to all-resident sequential fusion at a strictly
// larger buffer requirement.
func PipelinedFusion(c *Chain) (*Curve, error) { return fusion.PipelinedFusion(c) }

// TiledFusionWithPartialSpill extends two-op tiled fusion with
// partial-sum spilling to the backing store (the paper's Sec. V-F
// future-work knob).
func TiledFusionWithPartialSpill(c *Chain) (*Curve, error) {
	return fusion.TiledFusionWithPartialSpill(c)
}

// MHAConfig drives the attention fusion-strategy comparison (Fig. 20).
type MHAConfig = fusion.MHAConfig

// Derivative models -------------------------------------------------------

// MesaPoint is one sample of an attainable-OI mesa.
type MesaPoint = oi.MesaPoint

// OIMesa derives the attainable-OI curve of a workload (Fig. 8).
func OIMesa(c *Curve, macs, elementSize int64) []MesaPoint {
	return oi.Mesa(c, macs, elementSize)
}

// ChipSpec describes a chip envelope for the area provisioning model.
type ChipSpec = oi.ChipSpec

// PerfPoint is one sample of a performance mesa.
type PerfPoint = oi.PerfPoint

// GF100 is the paper's baseline 40 nm chip specification.
func GF100() ChipSpec { return oi.GF100() }

// PerformanceMesa sweeps buffer-to-compute area ratios (Fig. 9/23).
func PerformanceMesa(c *Curve, macs int64, spec ChipSpec, ratios []float64) []PerfPoint {
	return oi.PerformanceMesa(c, macs, spec, ratios)
}

// OptimalRatio picks the mesa point with peak achieved throughput.
func OptimalRatio(mesa []PerfPoint) (PerfPoint, bool) { return oi.OptimalRatio(mesa) }

// Ratios returns n+1 evenly spaced area ratios in [lo, hi].
func Ratios(lo, hi float64, n int) []float64 { return oi.Ratios(lo, hi, n) }

// LLM case study ----------------------------------------------------------

// LLMConfig describes a transformer building block.
type LLMConfig = llm.Config

// GPT3_6_7B is the paper's Sec. VII target workload.
func GPT3_6_7B() LLMConfig { return llm.GPT3_6_7B() }

// BlockStudy bundles the full-building-block curves (Figs. 21–23).
type BlockStudy = llm.BlockStudy

// NewBlockStudy derives every curve of the LLM case study.
func NewBlockStudy(c LLMConfig, opts Options) (*BlockStudy, error) {
	return llm.NewBlockStudy(c, opts)
}

// Multi-level hierarchies ---------------------------------------------------

// Hierarchy and Level describe a multi-level memory system for the
// Fig. 7-style extrapolation with energy and bandwidth bounds.
type (
	Hierarchy       = hierarchy.Hierarchy
	Level           = hierarchy.Level
	HierarchyReport = hierarchy.Report
)

// AnalyzeHierarchy probes a curve at every level of a hierarchy, yielding
// per-link traffic, energy and bandwidth-time lower bounds.
func AnalyzeHierarchy(c *Curve, h Hierarchy, macs int64) (*HierarchyReport, error) {
	return hierarchy.Analyze(c, h, macs)
}

// A100Like, EdgeLike and TPULike are preset hierarchies.
func A100Like() Hierarchy { return hierarchy.A100Like() }
func EdgeLike() Hierarchy { return hierarchy.EdgeLike() }
func TPULike() Hierarchy  { return hierarchy.TPULike() }

// ThreeLevelResult is the jointly-achievable three-level Snowcat bound.
type ThreeLevelResult = multilevel.Result

// DeriveThreeLevel exhaustively maps a workload onto a three-level
// Snowcat (L1, L2, backing store): every point of its curves is one
// mapping achieving its DRAM and L2 traffic simultaneously, which the
// independent Fig. 7 probes cannot guarantee. The traversal runs on the
// shared parallel engine across all cores; results are identical for any
// worker count.
func DeriveThreeLevel(e *Einsum, l1CapBytes int64) (*ThreeLevelResult, error) {
	return multilevel.Derive(e, l1CapBytes, multilevel.Options{})
}

// Heuristic mappers ---------------------------------------------------------

// RandomSearchCurve samples random Snowcat mappings — valid but loose,
// the paper's argument for exhaustive traversal.
func RandomSearchCurve(e *Einsum, samples int, seed int64) *Curve {
	return search.RandomCurve(e, samples, seed)
}

// HillClimbCurve runs greedy local search under a set of buffer budgets.
func HillClimbCurve(e *Einsum, budgets []int64, evalBudget int, seed int64) *Curve {
	return search.HillClimbCurve(e, budgets, evalBudget, seed)
}

// SearchLooseness quantifies a heuristic curve's gap to the bound.
type SearchLooseness = search.Looseness

// CompareSearch measures how far a heuristic curve sits above the
// exhaustive bound.
func CompareSearch(exhaustive, heuristic *Curve) SearchLooseness {
	return search.Compare(exhaustive, heuristic)
}

// Workload catalog ----------------------------------------------------------

// ConvLayer is a named convolution layer from the model catalog.
type ConvLayer = models.ConvLayer

// ResNet50 and VGG16 return representative CNN layer catalogs.
func ResNet50() []ConvLayer { return models.ResNet50() }
func VGG16() []ConvLayer    { return models.VGG16() }

// BERTBase and BERTLarge return encoder transformer blocks; GPT3_13B and
// GPT3_175B the larger GPT-3 family members.
func BERTBase(seq, batch int64) LLMConfig  { return models.BERTBase(seq, batch) }
func BERTLarge(seq, batch int64) LLMConfig { return models.BERTLarge(seq, batch) }
func GPT3_13B(seq, batch int64) LLMConfig  { return models.GPT3_13B(seq, batch) }
func GPT3_175B(seq, batch int64) LLMConfig { return models.GPT3_175B(seq, batch) }

// Llama2_70B_GQA returns Llama-2-70B's grouped-query attention BMM.
func Llama2_70B_GQA(seq int64) *Einsum { return models.Llama2_70B_GQA(seq) }

// TransformerBlocks lists the catalog's transformer configurations.
func TransformerBlocks() []LLMConfig { return models.TransformerBlocks() }

// Reporting -----------------------------------------------------------------

// ReadCurveCSV parses a saved two-column curve CSV. Curves are portable
// across architectures (Sec. III-B), so deriving once and re-loading into
// later DSE sessions is the intended workflow; Curve also implements
// json.Marshaler/Unmarshaler and io.WriterTo.
func ReadCurveCSV(r io.Reader) (*Curve, error) { return pareto.ReadCSV(r) }

// Series is a named curve for CSV/ASCII output.
type Series = plotting.Series

// WriteCSV, Ascii and SummaryTable render curves as text.
var (
	WriteCSV     = plotting.WriteCSV
	Ascii        = plotting.Ascii
	SummaryTable = plotting.SummaryTable
)

// AsciiOptions controls ASCII chart rendering.
type AsciiOptions = plotting.AsciiOptions
