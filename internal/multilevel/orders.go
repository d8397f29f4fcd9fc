package multilevel

import (
	"repro/internal/einsum"
	"repro/internal/nest"
	"repro/internal/shape"
)

// combo scores one three-split combination of a worker's traversal: its
// L1 and L2 footprints and, by subset DP (nest.MinOverOrders), the best
// DRAM and L2 traffic over all of its outer x mid loop orders. Scratch
// state is reused across combinations; a combo is not safe for
// concurrent use.
//
// Along the composite nest (outer loops enclosing mid loops) the product
// rule splits L2 traffic into two independent terms. A tensor with an
// iterating relevant mid loop has its innermost relevant loop in the mid
// nest, so it is transferred P_out · midIters_t(mid order) times, with
// P_out the product of all outer bounds. Every other tensor stops in the
// outer nest and is transferred the outer-nest count, the same count its
// DRAM term uses. So
//
//	l2 = P_out·Σ fp0·midIters(mid order) + Σ fp0·outerIters(outer order)
//
// and the per-combination optima separate: the unconstrained L2 minimum
// is the mid DP's minimum plus the outer DP's minimum of the second term,
// and the joint entry (least DRAM, then least L2 among DRAM-optimal
// orders) takes the second term lexicographically after DRAM in the same
// outer DP.
type combo struct {
	proj   *einsum.Compiled
	splits []shape.ThreeSplit

	tiles0, tiles1 []int64 // per-rank L1 and L2 tile sizes
	fp0, fp1       []int64 // per-tensor L1 and L2 footprints
	l2Elems        int64   // L2 footprint of the combination

	// Per-order-problem scratch: iterating loops' rank indices and bounds,
	// and per-tensor relevance masks over them.
	midAct, outAct       []int
	midBounds, outBounds []int64
	midRel, outRel       []uint64
	mid                  nest.OrderScratch[int64]
	out                  nest.OrderScratch[outerCost]
	chargeMid            func(acc int64, t, r int, above int64) int64
	chargeOut            func(acc outerCost, t, r int, above int64) outerCost
}

// outerCost is the outer DP's value: DRAM traffic, the outer-nest share
// of L2 traffic selected lexicographically after DRAM, and the least
// outer-nest share regardless of DRAM — all in elements.
type outerCost struct {
	dram, share, free int64
}

func newCombo(e *einsum.Einsum) *combo {
	nt, n := len(e.Tensors), len(e.Ranks)
	c := &combo{
		proj:   e.Compile(),
		splits: make([]shape.ThreeSplit, n),
		tiles0: make([]int64, n),
		tiles1: make([]int64, n),
		fp0:    make([]int64, nt),
		fp1:    make([]int64, nt),
		midRel: make([]uint64, nt),
		outRel: make([]uint64, nt),
	}
	c.chargeMid = c.midCharge
	c.chargeOut = c.outCharge
	return c
}

// l1Elems computes the footprints of the combination in c.splits and
// returns its L1 footprint in elements.
func (c *combo) l1Elems() int64 {
	for i, ts := range c.splits {
		c.tiles0[i] = ts.L0
		c.tiles1[i] = ts.L0 * ts.L1
	}
	var l1 int64
	c.l2Elems = 0
	for t := range c.fp0 {
		c.fp0[t] = c.proj.Footprint(t, c.tiles0)
		c.fp1[t] = c.proj.Footprint(t, c.tiles1)
		l1 += c.fp0[t]
		c.l2Elems += c.fp1[t]
	}
	return l1
}

// best returns, in elements, the combination's L2 footprint, its least
// DRAM traffic, its least L2 traffic, and the least L2 traffic among the
// orders that attain the least DRAM traffic. l1Elems must run first.
func (c *combo) best() (l2Elems, dram, freeL2, jointL2 int64) {
	c.midAct, c.midBounds = c.midAct[:0], c.midBounds[:0]
	c.outAct, c.outBounds = c.outAct[:0], c.outBounds[:0]
	pOut := int64(1)
	for i, ts := range c.splits {
		if ts.L1 > 1 {
			c.midAct = append(c.midAct, i)
			c.midBounds = append(c.midBounds, ts.L1)
		}
		if ts.L2 > 1 {
			c.outAct = append(c.outAct, i)
			c.outBounds = append(c.outBounds, ts.L2)
		}
		pOut *= ts.L2
	}
	var zero outerCost
	for t := range c.midRel {
		rel := c.proj.Relevance(t)
		c.midRel[t] = nest.LoopMask(rel, c.midAct)
		c.outRel[t] = nest.LoopMask(rel, c.outAct)
		if c.outRel[t] == 0 {
			zero.dram += c.fp1[t]
			if c.midRel[t] == 0 {
				zero.share += c.fp0[t]
				zero.free += c.fp0[t]
			}
		}
	}
	midL2 := pOut * nest.MinOverOrders(&c.mid, c.midBounds, c.midRel, 0, c.chargeMid, minInt64)
	v := nest.MinOverOrders(&c.out, c.outBounds, c.outRel, zero, c.chargeOut, betterOuter)
	return c.l2Elems, v.dram, midL2 + v.free, midL2 + v.share
}

// midCharge charges tensor t closing at mid loop r: fp0 times its mid
// iteration count (the caller scales the sum by P_out).
func (c *combo) midCharge(acc int64, t, r int, above int64) int64 {
	return acc + c.fp0[t]*above*c.midBounds[r]
}

// outCharge charges tensor t closing at outer loop r: DRAM traffic for
// every tensor, the outer-nest L2 share for tensors the mid DP does not
// charge.
func (c *combo) outCharge(acc outerCost, t, r int, above int64) outerCost {
	iters := above * c.outBounds[r]
	acc.dram += c.fp1[t] * iters
	if c.midRel[t] == 0 {
		acc.share += c.fp0[t] * iters
		acc.free += c.fp0[t] * iters
	}
	return acc
}

// betterOuter keeps the lexicographic minimum of (dram, share) and,
// independently, the minimum free share.
func betterOuter(a, b outerCost) outerCost {
	free := min(a.free, b.free)
	if b.dram < a.dram || (b.dram == a.dram && b.share < a.share) {
		a = b
	}
	a.free = free
	return a
}

func minInt64(a, b int64) int64 { return min(a, b) }
