package multilevel

import (
	"math"

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
//
// The outer DP depends on the combination only through its L2 tile
// vector T = L0·L1 and the set M of tensors with no iterating relevant
// mid loop, which is what lets a worker's memo share it across the L1
// splits of one T. Its bounds (L2 = shape/T) and relevance masks are
// functions of T. Its charges read fp1 for every tensor and fp0 only for
// the tensors of M, and for those fp0 == fp1: no relevant rank of such a
// tensor has L1 > 1, so L0_r = T_r on every rank its footprint reads
// (einsum.Compiled builds the relevance mask from exactly the ranks its
// dimensions name). So outer charges fp1 throughout, keyed by (T, M).
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
	inM                  uint64 // M of the outer DP being solved (bit t)
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

// footprints fills fp with every tensor's footprint under tiles and
// returns their sum.
func (c *combo) footprints(fp, tiles []int64) int64 {
	var sum int64
	for t := range fp {
		fp[t] = c.proj.Footprint(t, tiles)
		sum += fp[t]
	}
	return sum
}

// l1Elems computes the footprints of the combination in c.splits and
// returns its L1 footprint in elements.
func (c *combo) l1Elems() int64 {
	for i, ts := range c.splits {
		c.tiles0[i] = ts.L0
		c.tiles1[i] = ts.L0 * ts.L1
	}
	c.l2Elems = c.footprints(c.fp1, c.tiles1)
	return c.footprints(c.fp0, c.tiles0)
}

// best returns, in elements, the combination's L2 footprint, its least
// DRAM traffic, its least L2 traffic, and the least L2 traffic among the
// orders that attain the least DRAM traffic. l1Elems must run first.
// It is the memo-free scoring a worker's memo reproduces.
func (c *combo) best() (l2Elems, dram, freeL2, jointL2 int64) {
	v := c.outer(c.midLoops())
	midL2 := c.midL2()
	return c.l2Elems, v.dram, midL2 + v.free, midL2 + v.share
}

// midLoops sets up the mid order problem of the combination in c.splits
// and returns M, the mask of tensors with no iterating relevant mid loop.
func (c *combo) midLoops() uint64 {
	c.midAct, c.midBounds = c.midAct[:0], c.midBounds[:0]
	for i, ts := range c.splits {
		if ts.L1 > 1 {
			c.midAct = append(c.midAct, i)
			c.midBounds = append(c.midBounds, ts.L1)
		}
	}
	var m uint64
	for t := range c.midRel {
		c.midRel[t] = nest.LoopMask(c.proj.Relevance(t), c.midAct)
		if c.midRel[t] == 0 {
			m |= 1 << t
		}
	}
	return m
}

// midL2 returns the mid-nest term of the least L2 traffic: P_out times
// the mid DP's minimum. midLoops must run first.
func (c *combo) midL2() int64 {
	pOut := int64(1)
	for _, ts := range c.splits {
		pOut *= ts.L2
	}
	return pOut * nest.MinOverOrders(&c.mid, c.midBounds, c.midRel, 0, c.chargeMid, minInt64)
}

// outer solves the outer order problem of the combination's T for the
// tensor set m (see combo), charging the L2 footprints c.fp1.
func (c *combo) outer(m uint64) outerCost {
	c.inM = m
	c.outAct, c.outBounds = c.outAct[:0], c.outBounds[:0]
	for i, ts := range c.splits {
		if ts.L2 > 1 {
			c.outAct = append(c.outAct, i)
			c.outBounds = append(c.outBounds, ts.L2)
		}
	}
	var zero outerCost
	for t := range c.outRel {
		c.outRel[t] = nest.LoopMask(c.proj.Relevance(t), c.outAct)
		if c.outRel[t] == 0 {
			zero.dram += c.fp1[t]
			if m>>t&1 == 1 {
				zero.share += c.fp1[t]
				zero.free += c.fp1[t]
			}
		}
	}
	return nest.MinOverOrders(&c.out, c.outBounds, c.outRel, zero, c.chargeOut, betterOuter)
}

// midCharge charges tensor t closing at mid loop r: fp0 times its mid
// iteration count (the caller scales the sum by P_out).
func (c *combo) midCharge(acc int64, t, r int, above int64) int64 {
	return acc + c.fp0[t]*above*c.midBounds[r]
}

// outCharge charges tensor t closing at outer loop r: DRAM traffic for
// every tensor, the outer-nest L2 share for tensors the mid DP does not
// charge (those of M, whose fp0 equals fp1).
func (c *combo) outCharge(acc outerCost, t, r int, above int64) outerCost {
	iters := above * c.outBounds[r]
	acc.dram += c.fp1[t] * iters
	if c.inM>>t&1 == 1 {
		acc.share += c.fp1[t] * iters
		acc.free += c.fp1[t] * iters
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

// option is one three-split of a rank together with its terms of the
// memo keys: the divisor index of L0 and of T = L0·L1 among the rank's
// divisors, times the rank's mixed-radix stride. Summed over the ranks
// they give each combination's L0 key and T key, exact indices into the
// Π|divisors| tile vectors, which never exceed the space size.
type option struct {
	shape.ThreeSplit
	k0, kT int64
}

// maxMemoSlots caps a worker's memo: its tables hold at most this many L0
// vectors and this many T vectors.
const maxMemoSlots = 1024

// memoSlots returns the slot count of a memo for a range of items
// combinations: the least power of two covering min(items, limit).
func memoSlots(items int64, limit int) int {
	n := 1
	for int64(n) < items && n < limit {
		n <<= 1
	}
	return n
}

// memo is one worker's bounded cache of the scoring work the combinations
// of one L1 tile vector L0 or one L2 tile vector T = L0·L1 share:
//
//   - per L0: the L1 footprints fp0 and their sum, which alone decides L1
//     feasibility;
//   - per T: the L2 footprints fp1 and their sum, the curve key;
//   - per (T, M): the outer DP's value (see combo for why (T, M) is an
//     exact key), in up to 2^min(tensors, 6) ways per T, way M mod ways;
//   - per T, what the worker has already recorded for it: whether its
//     DRAM point (the same for every split of T) is in the builder, and
//     the least free and joint L2 traffic it has offered, so a split that
//     cannot improve them touches neither the L2 builder nor the joint
//     table.
//
// The L0 and T tables are direct-mapped on key mod slot count, and every
// slot and way is tagged with the key it holds, so a colliding or evicted
// key is recomputed, never misread. Only the mid DP, unique to each
// combination, runs for every combination.
type memo struct {
	mask  int64  // slot count - 1
	nt    int    // tensors
	ways  uint64 // outer entries per T slot
	l0    []l0Slot
	fp0   []int64 // nt per L0 slot
	t     []tSlot
	fp1   []int64 // nt per T slot
	outer []outerEntry
}

type l0Slot struct {
	key, l1Elems int64
}

type tSlot struct {
	key, l2Elems int64
	valid        uint64 // outer ways holding a value for this T
	// Least free and joint L2 traffic recorded for T, math.MaxInt64 until
	// T's first record, which also adds its DRAM point.
	free, joint int64
}

type outerEntry struct {
	m uint64
	v outerCost
}

// newMemo returns an empty memo of slots slots (a power of two) for
// combinations of e.
func newMemo(e *einsum.Einsum, slots int) *memo {
	nt := len(e.Tensors)
	ways := 1 << min(nt, 6)
	m := &memo{
		mask:  int64(slots - 1),
		nt:    nt,
		ways:  uint64(ways),
		l0:    make([]l0Slot, slots),
		fp0:   make([]int64, slots*nt),
		t:     make([]tSlot, slots),
		fp1:   make([]int64, slots*nt),
		outer: make([]outerEntry, slots*ways),
	}
	for i := range m.l0 {
		m.l0[i].key = -1
		m.t[i].key = -1
	}
	return m
}

// l1Elems points c.fp0 at the L1 footprints of the combination in
// c.splits, whose L0 key is key, and returns their sum.
func (m *memo) l1Elems(c *combo, key int64) int64 {
	i := key & m.mask
	s := &m.l0[i]
	c.fp0 = m.fp0[i*int64(m.nt) : (i+1)*int64(m.nt)]
	if s.key != key {
		for r, ts := range c.splits {
			c.tiles0[r] = ts.L0
		}
		s.key, s.l1Elems = key, c.footprints(c.fp0, c.tiles0)
	}
	return s.l1Elems
}

// best is combo.best for the combination in c.splits whose T key is key,
// after l1Elems: it returns the combination's T slot (l2Elems is the L2
// footprint) and, in elements, the least DRAM traffic, the least L2
// traffic, and the least L2 traffic among DRAM-optimal orders.
func (m *memo) best(c *combo, key int64) (s *tSlot, dram, freeL2, jointL2 int64) {
	i := key & m.mask
	s = &m.t[i]
	c.fp1 = m.fp1[i*int64(m.nt) : (i+1)*int64(m.nt)]
	if s.key != key {
		for r, ts := range c.splits {
			c.tiles1[r] = ts.L0 * ts.L1
		}
		*s = tSlot{key: key, l2Elems: c.footprints(c.fp1, c.tiles1), free: math.MaxInt64, joint: math.MaxInt64}
	}
	inM := c.midLoops()
	way := inM & (m.ways - 1)
	o := &m.outer[uint64(i)*m.ways+way]
	if s.valid>>way&1 == 0 || o.m != inM {
		*o = outerEntry{m: inM, v: c.outer(inM)}
		s.valid |= 1 << way
	}
	midL2 := c.midL2()
	return s, o.v.dram, midL2 + o.v.free, midL2 + o.v.share
}
