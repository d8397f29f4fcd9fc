package fusion

import (
	"fmt"

	"repro/internal/pareto"
	"repro/internal/shape"
)

// PipelinedFusion derives the bound for pipelined (rather than
// sequential) fused execution per Sec. V-B: all layers run concurrently
// on streaming tiles, so *every* layer's weights must be resident at all
// times — BufReq = sum of all weight footprints plus the largest
// input/output tile pair. Access counts match sequential fusion with all
// weights resident (each weight loaded once), so pipelining only ever
// costs buffer capacity, which is why the paper focuses on sequential
// fusion.
func PipelinedFusion(c *Chain) (*pareto.Curve, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(c.Ops) < 2 {
		return nil, fmt.Errorf("fusion: PipelinedFusion needs >= 2 ops, chain %s has %d",
			c.Name, len(c.Ops))
	}
	e0 := &c.Ops[0]
	last := len(c.Ops) - 1

	n2Options := shape.Divisors(e0.OutW)
	if e0.NoOutputTiling {
		n2Options = []int64{1}
	}

	b := pareto.NewBuilder()
	for _, m0 := range shape.Divisors(c.M) {
		// All weights resident; concurrent instances per op whose rows
		// overlap one M0 block.
		var wbuf, acc int64
		for e := range c.Ops {
			op := &c.Ops[e]
			concurrent := shape.Max(1, shape.CeilDiv(m0, op.RowsPerInst))
			wbuf += shape.Product(op.WInst, concurrent)
			acc += c.WeightTotalElements(e)
		}
		for _, n2 := range n2Options {
			total := acc +
				shape.Product(n2, c.M, e0.InW) +
				shape.Product(c.M, c.Ops[last].OutW)
			// Pipelined I/O: the max in+out tile pair across stages, all
			// alive simultaneously — charge the sum of per-stage pairs'
			// maximum as in the paper's equation.
			io := ioPeak(c, m0, n2, c.Ops[last].OutW)
			b.Add((io+wbuf)*c.ElementSize, total*c.ElementSize)
		}
	}
	curve := b.Curve()
	curve.AlgoMinBytes = c.FusedAlgoMinBytes()
	curve.TotalOperandBytes = c.UnfusedAlgoMinBytes()
	return curve, nil
}

// TiledFusionWithPartialSpill extends the two-Einsum tiled-fusion space
// with the paper's future-work knob (Sec. V-F): the last Einsum's partial
// sums may be spilled to and reloaded from the backing store instead of
// being accumulated in the buffer. Each of the N2(0) re-iterations then
// writes the full output row once and re-reads it on the next pass —
// (2*N2-1) * M * N(last) total output traffic — in exchange for an output
// buffer of a single sub-tile. The returned curve merges the standard
// tiled-fusion points with the spilling points.
func TiledFusionWithPartialSpill(c *Chain) (*pareto.Curve, error) {
	base, err := TiledFusion(c)
	if err != nil {
		return nil, err
	}
	if len(c.Ops) != 2 {
		// The paper only sanctions partial-sum propagation for the
		// two-Einsum special case; longer chains fall back to the
		// standard bound.
		return base, nil
	}
	e0, e1 := &c.Ops[0], &c.Ops[1]
	n2Options := shape.Divisors(e0.OutW)
	if e0.NoOutputTiling {
		n2Options = []int64{1}
	}

	b := pareto.NewBuilder()
	b.AddCurve(base)
	subsets := 1 << 2
	for _, m0 := range shape.Divisors(c.M) {
		m1 := c.M / m0
		for _, n2 := range n2Options {
			if n2 == 1 {
				continue // no partials to spill
			}
			for f := 0; f < subsets; f++ {
				acc, wbuf := weightTerms(c, m0, m1, f)
				acc += shape.Product(n2, c.M, e0.InW)
				// Spilled partials: N2 writes + (N2-1) reloads of the
				// full output.
				acc += shape.Product(2*n2-1, c.M, e1.OutW)
				// I/O: op0 streams input (1) and holds an OutW/N2 slice;
				// op1 holds the same slice as input and only a unit
				// output accumulator strip.
				io := shape.Product(m0, 1+shape.CeilDiv(e0.OutW, n2))
				io2 := shape.Product(m0, shape.CeilDiv(e1.InW, n2)+1)
				b.Add((shape.Max(io, io2)+wbuf)*c.ElementSize, acc*c.ElementSize)
			}
		}
	}
	curve := b.Curve()
	curve.AlgoMinBytes = base.AlgoMinBytes
	curve.TotalOperandBytes = base.TotalOperandBytes
	return curve, nil
}
