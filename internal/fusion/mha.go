package fusion

import (
	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/pareto"
	"repro/internal/shape"
)

// MHAConfig describes a multi-head attention block for the Fig. 20 fusion
// strategy study: Instances independent sequences (batch entries), each
// with Seq tokens, Heads attention heads of FeatureDim features.
type MHAConfig struct {
	Instances   int64
	Seq         int64
	Heads       int64
	FeatureDim  int64
	ElementSize int64
}

func (m MHAConfig) elemSize() int64 {
	if m.ElementSize > 0 {
		return m.ElementSize
	}
	return einsum.DefaultElementSize
}

// QKEinsum returns the standalone bmm_QK Einsum over all instances.
func (m MHAConfig) QKEinsum() *einsum.Einsum {
	return einsum.BMM("bmm_QK", m.Instances*m.Heads, m.Seq, m.FeatureDim, m.Seq)
}

// QKVEinsum returns the standalone bmm_QKV Einsum over all instances.
func (m MHAConfig) QKVEinsum() *einsum.Einsum {
	return einsum.BMM("bmm_QKV", m.Instances*m.Heads, m.Seq, m.Seq, m.FeatureDim)
}

// AlgoMinFusedBytes is the fused algorithmic minimum of the attention
// pair: Q, K, V read once, the attention output written once; scores never
// leave the chip.
func (m MHAConfig) AlgoMinFusedBytes() int64 {
	per := 4 * m.Seq * m.FeatureDim // Q + K + V + out per head
	return shape.Product(m.Instances, m.Heads, per) * m.elemSize()
}

// UnfusedCurve is Fig. 20's baseline: both BMMs bounded independently and
// summed.
func (m MHAConfig) UnfusedCurve(opts bound.Options) *pareto.Curve {
	qk := bound.Derive(m.QKEinsum(), opts).Curve
	qkv := bound.Derive(m.QKVEinsum(), opts).Curve
	return pareto.Sum(qk, qkv)
}

// FLATCurve models the FLAT fusion strategy (FFMT-TiledK producer +
// FFMT-TiledN consumer): the full score row of each M0-token block must be
// materialized on chip for the row-wise softmax, so the buffer charges
// M0 * Heads * Seq score elements. K and V matrices are either streamed
// once per block traversal or held resident per sequence.
func (m MHAConfig) FLATCurve() *pareto.Curve {
	es := m.elemSize()
	s, h, f := m.Seq, m.Heads, m.FeatureDim
	kvBytes := 2 * h * s * f // per-sequence K + V elements
	b := pareto.NewBuilder()
	for _, m0 := range shape.Divisors(s) {
		m1 := s / m0
		for resident := 0; resident <= 1; resident++ {
			// Per-sequence accesses: Q in, out, K/V streamed or resident.
			acc := 2 * s * h * f // Q + output
			buf := m0*h*f + m0*h*s + m0*h*f
			if resident == 1 {
				acc += kvBytes
				buf += kvBytes
			} else {
				acc += m1 * kvBytes
				buf += 2 * f // one K row and one V row in flight
			}
			b.Add(buf*es, shape.Product(m.Instances, acc)*es)
		}
	}
	curve := b.Curve()
	m.annotate(curve)
	return curve
}

// FlashAttentionCurve models the FlashAttention strategy: the online
// softmax lets the score row be produced in Seq/N2 sub-tiles, removing the
// M0 * Heads * Seq buffer term. Access counts match FLAT at equal M0 — the
// advantage is that far larger M0 fits a given capacity.
func (m MHAConfig) FlashAttentionCurve() *pareto.Curve {
	es := m.elemSize()
	s, h, f := m.Seq, m.Heads, m.FeatureDim
	kvBytes := 2 * h * s * f
	b := pareto.NewBuilder()
	for _, m0 := range shape.Divisors(s) {
		m1 := s / m0
		for _, n2 := range shape.Divisors(s) {
			for resident := 0; resident <= 1; resident++ {
				acc := 2 * s * h * f
				// Q block, running output + softmax statistics, score
				// sub-tile.
				buf := m0*h*f + m0*h*f + m0*h*(s/n2)
				if resident == 1 {
					acc += kvBytes
					buf += kvBytes
				} else {
					acc += m1 * kvBytes
					buf += 2 * f * (s / n2)
				}
				b.Add(buf*es, shape.Product(m.Instances, acc)*es)
			}
		}
	}
	curve := b.Curve()
	m.annotate(curve)
	return curve
}

func (m MHAConfig) annotate(c *pareto.Curve) {
	c.AlgoMinBytes = m.AlgoMinFusedBytes()
	qk, qkv := m.QKEinsum(), m.QKVEinsum()
	c.TotalOperandBytes = qk.AlgorithmicMinBytes() + qkv.AlgorithmicMinBytes()
}
