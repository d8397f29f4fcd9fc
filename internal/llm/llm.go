// Package llm assembles the paper's Sec. VII case study: the GPT-3-6.7b
// transformer building block (Fig. 19) as Orojenesis workloads — the MHA
// fusion-strategy comparison (Fig. 20), the six-Einsum fused chain
// (Fig. 21), the full-block bound (Fig. 22) and the inputs to the
// buffer-area provisioning model (Fig. 23).
package llm

import (
	"fmt"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/pareto"
)

// Config describes a decoder-style transformer block workload.
type Config struct {
	Name    string
	SeqLen  int64 // tokens per sequence
	Batch   int64 // independent sequences
	D       int64 // model (feature) dimension
	Heads   int64 // attention heads
	HeadDim int64 // per-head feature dimension (D = Heads * HeadDim)
	Hidden  int64 // FFN hidden dimension
}

// GPT3_6_7B returns the paper's target workload: d=4096, 32 heads of 128,
// hidden 16384, sequence length 2048 at batch 16 (l = 32768).
func GPT3_6_7B() Config {
	return Config{
		Name:    "GPT-3-6.7b",
		SeqLen:  2048,
		Batch:   16,
		D:       4096,
		Heads:   32,
		HeadDim: 128,
		Hidden:  16384,
	}
}

// Scaled returns a proportionally shrunken configuration for tests and
// quick runs; factor must divide the dimensions cleanly for perfect
// factorizations (powers of two work).
func (c Config) Scaled(factor int64) Config {
	s := c
	s.Name = fmt.Sprintf("%s/%d", c.Name, factor)
	s.SeqLen /= factor
	s.D /= factor
	s.HeadDim /= factor
	s.Hidden /= factor
	return s
}

// Validate checks dimensional consistency.
func (c Config) Validate() error {
	if c.SeqLen < 1 || c.Batch < 1 || c.D < 1 || c.Heads < 1 || c.HeadDim < 1 || c.Hidden < 1 {
		return fmt.Errorf("llm: %s: non-positive dimension", c.Name)
	}
	if c.Heads*c.HeadDim != c.D {
		return fmt.Errorf("llm: %s: heads %d * head dim %d != d %d", c.Name, c.Heads, c.HeadDim, c.D)
	}
	return nil
}

// L is the flattened token count l = seq * batch flowing through the block.
func (c Config) L() int64 { return c.SeqLen * c.Batch }

// QProj, KProj, VProj and FinalProj are the l x d x d projection GEMMs;
// MM0 and MM1 are the FFN GEMMs.
func (c Config) QProj() *einsum.Einsum     { return einsum.GEMM("Q_proj", c.L(), c.D, c.D) }
func (c Config) KProj() *einsum.Einsum     { return einsum.GEMM("K_proj", c.L(), c.D, c.D) }
func (c Config) VProj() *einsum.Einsum     { return einsum.GEMM("V_proj", c.L(), c.D, c.D) }
func (c Config) FinalProj() *einsum.Einsum { return einsum.GEMM("Final_proj", c.L(), c.D, c.D) }
func (c Config) MM0() *einsum.Einsum       { return einsum.GEMM("mm_0", c.L(), c.D, c.Hidden) }
func (c Config) MM1() *einsum.Einsum       { return einsum.GEMM("mm_1", c.L(), c.Hidden, c.D) }

// BmmQK and BmmQKV are the attention BMMs with the batch folded into the
// head dimension (batch*heads instances of seq x seq score matrices).
func (c Config) BmmQK() *einsum.Einsum {
	return einsum.BMM("bmm_QK", c.Batch*c.Heads, c.SeqLen, c.HeadDim, c.SeqLen)
}
func (c Config) BmmQKV() *einsum.Einsum {
	return einsum.BMM("bmm_QKV", c.Batch*c.Heads, c.SeqLen, c.SeqLen, c.HeadDim)
}

// AllEinsums returns every Einsum of one building block in execution order.
func (c Config) AllEinsums() []*einsum.Einsum {
	return []*einsum.Einsum{
		c.QProj(), c.KProj(), c.VProj(),
		c.BmmQK(), c.BmmQKV(),
		c.FinalProj(), c.MM0(), c.MM1(),
	}
}

// BlockMACs is the total multiply-accumulate count of one building block.
func (c Config) BlockMACs() int64 {
	var total int64
	for _, e := range c.AllEinsums() {
		total += e.MACs()
	}
	return total
}

// MHA returns the attention pair's fusion-strategy configuration (Fig. 20).
func (c Config) MHA() fusion.MHAConfig {
	return fusion.MHAConfig{
		Instances:  c.Batch,
		Seq:        c.SeqLen,
		Heads:      c.Heads,
		FeatureDim: c.HeadDim,
	}
}

// SixEinsumChain builds the Fig. 21 fusion chain: Q_proj -> bmm_QK ->
// bmm_QKV -> Final_proj -> mm_0 -> mm_1. The softmax after bmm_QK and the
// layernorm after Final_proj pin those ops' output rows untiled when they
// end a fused segment (Sec. VII-B).
func (c Config) SixEinsumChain() *fusion.Chain {
	qk := fusion.AttentionQKOp("bmm_QK", c.Batch, c.SeqLen, c.Heads, c.HeadDim)
	qk.NoOutputTiling = true // softmax needs complete score rows
	fp := fusion.GEMMOp("Final_proj", c.L(), c.D, c.D)
	fp.NoOutputTiling = true // layernorm before the FFN
	return fusion.MustChain(c.Name+"-chain", c.L(),
		fusion.GEMMOp("Q_proj", c.L(), c.D, c.D),
		qk,
		fusion.AttentionQKVOp("bmm_QKV", c.Batch, c.SeqLen, c.Heads, c.HeadDim),
		fp,
		fusion.GEMMOp("mm_0", c.L(), c.D, c.Hidden),
		fusion.GEMMOp("mm_1", c.L(), c.Hidden, c.D),
	)
}

// BlockStudy bundles the curves of the full-building-block analysis.
type BlockStudy struct {
	Config Config

	// Chain analyses (Fig. 21): optimal unfused, maximal tiled fusion,
	// and the best segmentation at every capacity.
	ChainUnfused   *pareto.Curve
	ChainFused     *pareto.Curve
	ChainSegmented *pareto.Curve

	// Full-block curves (Fig. 22) add the unfused K_proj and V_proj.
	BlockUnfused   *pareto.Curve
	BlockFused     *pareto.Curve
	BlockSegmented *pareto.Curve

	// Annotations.
	AlgoMinUnfusedBytes int64
	AlgoMinFusedBytes   int64
	BlockMACs           int64
}

// NewBlockStudy derives every curve of the Sec. VII-B/VII-C analysis:
// the six-Einsum chain through fusion.Analyze, plus the unfused K_proj
// and V_proj. It is the heavyweight entry point: at full GPT-3-6.7b
// scale it runs a few hundred thousand Snowcat evaluations plus the
// fused mapspace search.
func NewBlockStudy(c Config, opts bound.Options) (*BlockStudy, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	chain := c.SixEinsumChain()
	a, err := fusion.Analyze(chain, opts)
	if err != nil {
		return nil, err
	}
	chainUnfused, chainFused, chainSegmented := a.Unfused, a.Tiled, a.Best

	kProj := bound.Derive(c.KProj(), opts).Curve
	vProj := bound.Derive(c.VProj(), opts).Curve

	study := &BlockStudy{
		Config:         c,
		ChainUnfused:   chainUnfused,
		ChainFused:     chainFused,
		ChainSegmented: chainSegmented,
		BlockUnfused:   pareto.Sum(chainUnfused, kProj, vProj),
		BlockFused:     pareto.Sum(chainFused, kProj, vProj),
		BlockSegmented: pareto.Sum(chainSegmented, kProj, vProj),
		BlockMACs:      c.BlockMACs(),
	}
	study.AlgoMinFusedBytes = chain.FusedAlgoMinBytes() +
		c.KProj().AlgorithmicMinBytes() + c.VProj().AlgorithmicMinBytes()
	for _, e := range c.AllEinsums() {
		study.AlgoMinUnfusedBytes += e.AlgorithmicMinBytes()
	}
	study.BlockUnfused.AlgoMinBytes = study.AlgoMinUnfusedBytes
	study.BlockSegmented.AlgoMinBytes = study.AlgoMinFusedBytes
	study.BlockFused.AlgoMinBytes = study.AlgoMinFusedBytes
	return study, nil
}

// FusionReduction reports the unfused/fused access ratio of the full block
// at a capacity (the paper: 2.5x at 50 MB, up to 5.6x at 320 MB).
func (s *BlockStudy) FusionReduction(bufBytes int64) (float64, bool) {
	u, ok1 := s.BlockUnfused.AccessesAt(bufBytes)
	f, ok2 := s.BlockSegmented.AccessesAt(bufBytes)
	if !ok1 || !ok2 || f == 0 {
		return 0, false
	}
	return float64(u) / float64(f), true
}

// MaxEffectualBufferBytes returns the capacity beyond which fusion stops
// helping the full block.
func (s *BlockStudy) MaxEffectualBufferBytes() int64 {
	return s.BlockSegmented.MaxEffectualBufferBytes()
}

// AbsoluteSavingsBytes is the access-count difference between unfused and
// fused execution at a capacity.
func (s *BlockStudy) AbsoluteSavingsBytes(bufBytes int64) (int64, bool) {
	u, ok1 := s.BlockUnfused.AccessesAt(bufBytes)
	f, ok2 := s.BlockSegmented.AccessesAt(bufBytes)
	if !ok1 || !ok2 {
		return 0, false
	}
	return u - f, true
}
