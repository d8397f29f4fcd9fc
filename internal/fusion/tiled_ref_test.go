package fusion

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/pareto"
	"repro/internal/shape"
)

// refTiledFusionRange is the per-index tiled-fusion sweep the block path
// replaced, frozen as a reference: every template recomputes its accesses
// and I/O peaks, and every last-op tiling factor adds its own mode-B point.
func refTiledFusionRange(c *Chain, lo, hi int64) (*pareto.Curve, int64) {
	e0 := &c.Ops[0]
	last := len(c.Ops) - 1
	m0Options := shape.Divisors(c.M)
	n2Options := shape.Divisors(e0.OutW)
	if e0.NoOutputTiling {
		n2Options = []int64{1}
	}
	lastTileOptions := shape.Divisors(c.Ops[last].OutW)
	if c.Ops[last].NoOutputTiling {
		lastTileOptions = []int64{1}
	}
	subsets := int64(1) << len(c.Ops)
	b := pareto.NewBuilder()
	var count int64
	for idx := lo; idx < hi; idx++ {
		f := int(idx % subsets)
		rest := idx / subsets
		n2 := n2Options[rest%int64(len(n2Options))]
		m0 := m0Options[rest/int64(len(n2Options))]
		count += refEvalTemplate(c, b, m0, n2, f, lastTileOptions)
	}
	curve := b.Curve()
	curve.AlgoMinBytes = c.FusedAlgoMinBytes()
	curve.TotalOperandBytes = c.UnfusedAlgoMinBytes()
	return curve, count
}

func refEvalTemplate(c *Chain, b *pareto.Builder, m0, n2 int64, f int, lastTileOptions []int64) int64 {
	e0 := &c.Ops[0]
	last := len(c.Ops) - 1
	m1 := c.M / m0

	var acc, wbuf int64
	for e := range c.Ops {
		op := &c.Ops[e]
		inst := c.Instances(e)
		if f&(1<<e) != 0 {
			acc += c.WeightTotalElements(e)
			concurrent := shape.Max(1, shape.CeilDiv(m0, op.RowsPerInst))
			wbuf += shape.Product(op.WInst, concurrent)
		} else {
			acc += shape.Product(shape.Max(m1, inst), op.WInst)
		}
	}
	acc += shape.Product(n2, c.M, e0.InW)
	acc += shape.Product(c.M, c.Ops[last].OutW)
	if e0.HaloRows > 0 && m1 > 1 {
		acc += shape.Product(n2, m1-1, e0.HaloRows, e0.InW)
	}

	io := ioPeak(c, m0, n2, c.Ops[last].OutW)
	b.Add((io+wbuf)*c.ElementSize, acc*c.ElementSize)
	count := int64(1)
	if last >= 2 || n2 == 1 {
		for _, lt := range lastTileOptions {
			if lt == 1 {
				continue
			}
			ioB := ioPeak(c, m0, n2, c.Ops[last].OutW/lt)
			b.Add((ioB+wbuf)*c.ElementSize, acc*c.ElementSize)
			count++
		}
	}
	return count
}

// refChains are the chains the block path is checked against the
// reference on: the GPT-3 chain, a two-op GEMM pair (mode B only at
// N2(0) == 1), a chain whose last op cannot tile its output, and a conv
// pair whose first op re-reads halo rows.
func refChains() []*Chain {
	lastUntiled := GEMMOp("mm_2", 48, 24, 20)
	lastUntiled.NoOutputTiling = true
	halo := convChain()
	return []*Chain{
		gpt3SixEinsumChain(),
		MustChain("gemm-pair", 64,
			GEMMOp("mm_0", 64, 32, 48),
			GEMMOp("mm_1", 64, 48, 16)),
		MustChain("last-untiled", 48,
			GEMMOp("mm_0", 48, 16, 36),
			GEMMOp("mm_1", 48, 36, 24),
			lastUntiled),
		halo,
	}
}

func marshalCurve(t *testing.T, cv *pareto.Curve) string {
	t.Helper()
	b, err := json.Marshal(cv)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestTiledFusionMatchesReference checks the block sweep against the
// frozen per-index sweep: identical curve bytes and evaluated counts over
// the full space and over ranges cut mid-block, at one and three workers.
func TestTiledFusionMatchesReference(t *testing.T) {
	for _, c := range refChains() {
		sp, err := newTiledSpace(c)
		if err != nil {
			t.Fatal(err)
		}
		half := sp.subsets / 2
		ranges := [][2]int64{
			{0, sp.items},
			{half, sp.items - half},
			{sp.subsets + 3, 3*sp.subsets - 1},
			{sp.items - half - 1, sp.items},
		}
		for _, r := range ranges {
			want, wantN := refTiledFusionRange(c, r[0], r[1])
			for _, workers := range []int{1, 3} {
				got, ts, err := TiledFusionRange(context.Background(), c, r[0], r[1], workers)
				if err != nil {
					t.Fatal(err)
				}
				if g, w := marshalCurve(t, got), marshalCurve(t, want); g != w {
					t.Fatalf("%s [%d, %d) workers=%d: curve differs from reference\n got %s\nwant %s",
						c.Name, r[0], r[1], workers, g, w)
				}
				if ts.Evaluated != wantN {
					t.Fatalf("%s [%d, %d) workers=%d: evaluated %d, reference %d",
						c.Name, r[0], r[1], workers, ts.Evaluated, wantN)
				}
			}
		}
	}
}
