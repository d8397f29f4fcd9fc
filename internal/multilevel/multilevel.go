// Package multilevel derives *jointly achievable* bounds for a
// three-level Snowcat (L1 buffer, L2 buffer, backing store), implementing
// the tightening of multi-level bounds the paper lists as future work.
//
// Probing the two-level ski-slope curve at each level's capacity (Fig. 7)
// yields valid per-link bounds, but the Pareto-optimal mappings need not
// compose across levels (Sec. III-B.1). This package covers the full
// three-level mapspace — every rank split into an L1 tile, an L2 factor
// and outer loops, under every outer and mid loop order — so each point is
// one mapping that achieves its DRAM and L2 traffic simultaneously. The DRAM
// curve is therefore at least as high as the two-level curve (it carries
// the extra inner-level constraint), and the gap measures the composed
// probe's optimism.
//
// The traversal runs on the shared engine (internal/traverse): the
// three-split combinations form a flat index space chunked across workers;
// per-worker Pareto builders and joint-entry tables are merged after the
// traversal, so the curves and MinL2GivenOptimalDRAM answers are
// byte-identical for every worker count.
//
// The n!×n! outer×mid loop orders of a combination are not enumerated.
// Transfer counts follow the shared product rule (internal/nest) on the
// composite outer+mid nest, under which L2 traffic splits into a term
// that depends only on the mid order (tensors with an iterating relevant
// mid loop: P_out·midIters) and one that depends only on the outer order
// (the rest: the outer-nest count, shared with the DRAM term). A mid
// order DP and a lexicographic (DRAM, L2 share) outer order DP
// (nest.MinOverOrders) therefore give exactly the per-combination minima
// the DRAM curve, the L2 curve and the joint table need; see combo.
// Its L1 and L2 tile footprints come from the Einsum's rank-indexed
// projections (einsum.Compiled, shared with the Snowcat evaluator), so
// scoring a combination allocates nothing and hashes no rank names.
//
// Most of a combination's score depends on less than the whole split.
// Its L1 footprints, and so its L1 feasibility, depend only on the L1
// tile vector L0; its L2 footprints, its curve key and its DRAM traffic
// only on the L2 tile vector T = L0·L1; and the outer DP only on T and the
// set M of tensors with no iterating relevant mid loop (exact because
// such a tensor's L1 and L2 footprints coincide; see combo). Each worker
// keeps a bounded, tagged, direct-mapped memo of that work (memo), sized
// by min(range length, maxMemoSlots) and independent of the space, so
// only the mid DP runs per combination, each T's DRAM point reaches the
// worker's builder once, and a split that cannot improve the L2 or joint
// traffic its T already offered touches neither. The memo changes no
// result and keeps the flat index order, and with it every shard plan.
package multilevel

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/einsum"
	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/traverse"
)

// Options tunes the three-level traversal.
type Options struct {
	// Workers sets the number of parallel evaluation goroutines.
	// Zero (or negative) means GOMAXPROCS. Results are identical for
	// every worker count.
	Workers int
}

// Result bundles the three-level bounds for one L1 capacity.
type Result struct {
	L1CapacityBytes int64

	// DRAM is the frontier of (L2 footprint, DRAM accesses) over
	// mappings whose L1 tiles fit the L1 capacity.
	DRAM *pareto.Curve
	// L2 is the frontier of (L2 footprint, L2->L1 traffic) over the same
	// mappings.
	L2 *pareto.Curve
	// Mappings is the number of three-level mappings represented: n!²
	// (outer × mid orders of n ranks) per L1-feasible three-split
	// combination, although each combination is scored once, by the
	// exact order DP.
	Mappings int64

	// Stats reports what the traversal did (workers launched, throughput).
	Stats traverse.Stats

	// joint tracks, per L2 footprint, the best DRAM traffic and the best
	// L2 traffic among mappings achieving that DRAM traffic — the data
	// behind MinL2GivenOptimalDRAM.
	joint map[int64]jointEntry
}

type jointEntry struct {
	dram int64
	l2   int64
}

// better reports whether candidate (dram, l2) improves on je under the
// joint criterion: minimal DRAM traffic first, then minimal L2 traffic
// among DRAM-ties. The rule is commutative, so per-worker tables merge to
// the same result in any order.
func (je jointEntry) better(dram, l2 int64) bool {
	return dram < je.dram || (dram == je.dram && l2 < je.l2)
}

// worker is one traversal worker: its share of the output, and its own
// copy of the rank options beside its odometer, combo and memo. The copy
// is deliberate: read-only tables shared between workers can sit on a
// cache line with another worker's hot odometer.
type worker struct {
	dramB     *pareto.Builder
	l2B       *pareto.Builder
	joint     map[int64]jointEntry
	options   [][]option
	idx       []int
	c         *combo
	m         *memo
	es, l1Cap int64
	orders    int64 // outer x mid orders per combination
}

func newWorker(e *einsum.Einsum, options [][]option, slots int, l1CapBytes int64) *worker {
	n := len(e.Ranks)
	wk := &worker{
		dramB:   pareto.NewBuilder(),
		l2B:     pareto.NewBuilder(),
		joint:   map[int64]jointEntry{},
		options: make([][]option, n),
		idx:     make([]int, n),
		c:       newCombo(e),
		m:       newMemo(e, slots),
		es:      e.ElementSize,
		l1Cap:   l1CapBytes,
		orders:  shape.Factorial(n) * shape.Factorial(n),
	}
	for i, o := range options {
		wk.options[i] = slices.Clone(o)
	}
	return wk
}

// walk scores the global combinations [lo, hi) and returns the number of
// mappings they represent.
func (wk *worker) walk(lo, hi int64) int64 {
	c, m, es := wk.c, wk.m, wk.es
	// Decode the start index into mixed-radix digits (last rank fastest),
	// then advance odometer-style — the serial enumeration order.
	rem := lo
	for i := len(wk.idx) - 1; i >= 0; i-- {
		k := int64(len(wk.options[i]))
		wk.idx[i] = int(rem % k)
		rem /= k
	}
	var count int64
	for flat := lo; flat < hi; flat++ {
		var k0, kT int64
		for i, j := range wk.idx {
			o := &wk.options[i][j]
			c.splits[i] = o.ThreeSplit
			k0 += o.k0
			kT += o.kT
		}
		if m.l1Elems(c, k0)*es <= wk.l1Cap {
			s, dram, freeL2, jointL2 := m.best(c, kT)
			key := s.l2Elems * es
			// dram is the same for every split of T, so a split records
			// only what improves on the splits of T before it.
			if s.free == math.MaxInt64 {
				wk.dramB.Add(key, dram*es)
			}
			if freeL2 < s.free {
				s.free = freeL2
				wk.l2B.Add(key, freeL2*es)
			}
			if jointL2 < s.joint {
				s.joint = jointL2
				if je, ok := wk.joint[key]; !ok || je.better(dram*es, jointL2*es) {
					wk.joint[key] = jointEntry{dram: dram * es, l2: jointL2 * es}
				}
			}
			count += wk.orders
		}
		for i := len(wk.idx) - 1; i >= 0; i-- {
			wk.idx[i]++
			if wk.idx[i] < len(wk.options[i]) {
				break
			}
			wk.idx[i] = 0
		}
	}
	return count
}

// Space returns the size of the flat three-split combination space Derive
// walks for e: the product over ranks of their three-split counts, an
// error when that overflows int64. It is the [0, Space) range DeriveRange
// slices and a cross-process shard plan (internal/shard) divides.
func Space(e *einsum.Einsum) (int64, error) {
	_, combos, err := threeSplits(e)
	return combos, err
}

// threeSplits returns every rank's three-splits, with their memo key
// terms (see option), and Space(e). A rank's three-splits come from its
// divisors divs in shape.ThreeSplits order: for each L0 = divs[a], L1
// ascends over the divisors of shape/L0, which are the divisors d with
// L0·d dividing shape, and T = L0·L1 = divs[b] gives T's divisor index b.
func threeSplits(e *einsum.Einsum) ([][]option, int64, error) {
	if err := e.Validate(); err != nil {
		return nil, 0, err
	}
	options := make([][]option, len(e.Ranks))
	combos, stride := int64(1), int64(1)
	for i := len(e.Ranks) - 1; i >= 0; i-- {
		n := e.Ranks[i].Shape
		divs := shape.Divisors(n)
		each := func(emit func(l0, l1 int64, a, b int)) {
			for a, l0 := range divs {
				b, lim := a, n/l0
				for _, l1 := range divs {
					if l1 > lim {
						break
					}
					for divs[b] < l0*l1 {
						b++
					}
					if divs[b] == l0*l1 {
						emit(l0, l1, a, b)
					}
				}
			}
		}
		count := 0
		each(func(int64, int64, int, int) { count++ })
		var ok bool
		if combos, ok = shape.MulCount(combos, int64(count)); !ok {
			return nil, 0, fmt.Errorf("multilevel: three-split space of %s overflows int64", e.Name)
		}
		options[i] = make([]option, 0, count)
		each(func(l0, l1 int64, a, b int) {
			options[i] = append(options[i], option{
				ThreeSplit: shape.ThreeSplit{L0: l0, L1: l1, L2: n / (l0 * l1)},
				k0:         int64(a) * stride,
				kT:         int64(b) * stride,
			})
		})
		stride *= int64(len(divs)) // at most combos: a rank has more three-splits than divisors
	}
	return options, combos, nil
}

// Derive exhaustively walks the three-level mapspace of e. Only mappings
// whose L1 footprint fits l1CapBytes are kept. Intended for moderate
// shapes: the space grows with the cube of the per-rank three-split
// counts.
func Derive(e *einsum.Einsum, l1CapBytes int64, opts Options) (*Result, error) {
	combos, err := Space(e)
	if err != nil {
		return nil, err
	}
	return DeriveRange(context.Background(), e, l1CapBytes, 0, combos, opts)
}

// DeriveRange walks the global three-split combinations [lo, hi) of e's
// space — one shard's share of the full traversal. Partial Results over a
// disjoint cover of [0, Space(e)) recombine with Merge into the
// byte-identical full-range Result: Pareto union and the joint min-rule
// are both insensitive to how the underlying mappings were partitioned.
//
// Cancelling ctx aborts the traversal within about one worker chunk and
// returns the context's error with no Result.
func DeriveRange(ctx context.Context, e *einsum.Einsum, l1CapBytes int64, lo, hi int64, opts Options) (*Result, error) {
	return deriveRange(ctx, e, l1CapBytes, lo, hi, opts, maxMemoSlots)
}

// deriveRange is DeriveRange with each worker's memo capped at maxSlots
// slots.
func deriveRange(ctx context.Context, e *einsum.Einsum, l1CapBytes int64, lo, hi int64, opts Options, maxSlots int) (*Result, error) {
	options, combosTotal, err := threeSplits(e)
	if err != nil {
		return nil, err
	}
	if l1CapBytes < 1 {
		return nil, fmt.Errorf("multilevel: non-positive L1 capacity %d", l1CapBytes)
	}
	if lo < 0 || hi < lo || hi > combosTotal {
		return nil, fmt.Errorf("multilevel: DeriveRange [%d, %d) outside [0, %d)", lo, hi, combosTotal)
	}
	if len(e.Tensors) > 64 {
		return nil, fmt.Errorf("multilevel: %s has %d tensors, at most 64 supported", e.Name, len(e.Tensors))
	}

	combos := hi - lo
	slots := memoSlots(combos, maxSlots)

	w := traverse.WorkerCount(combos, opts.Workers)
	states := make([]*worker, w)
	stats, terr := traverse.Partition(ctx, combos, w, func(wi int) traverse.RangeFunc {
		wk := newWorker(e, options, slots, l1CapBytes)
		states[wi] = wk
		return func(clo, chi int64) int64 { return wk.walk(lo+clo, lo+chi) }
	})

	if terr != nil {
		return nil, terr
	}

	// Merge the per-worker frontiers and joint tables. Pareto union and
	// the joint min-rule are both insensitive to merge order, so the
	// result matches a serial traversal exactly.
	res := &Result{L1CapacityBytes: l1CapBytes, joint: map[int64]jointEntry{}, Stats: stats}
	res.Mappings = stats.Evaluated
	dramCurves := make([]*pareto.Curve, 0, len(states))
	l2Curves := make([]*pareto.Curve, 0, len(states))
	for _, st := range states {
		if st == nil {
			continue
		}
		dramCurves = append(dramCurves, st.dramB.Curve())
		l2Curves = append(l2Curves, st.l2B.Curve())
		for key, je := range st.joint {
			if got, ok := res.joint[key]; !ok || got.better(je.dram, je.l2) {
				res.joint[key] = je
			}
		}
	}
	res.DRAM = pareto.Union(dramCurves...)
	res.DRAM.AlgoMinBytes = e.AlgorithmicMinBytes()
	res.DRAM.TotalOperandBytes = e.TotalOperandBytes()
	res.L2 = pareto.Union(l2Curves...)
	res.L2.AlgoMinBytes = e.AlgorithmicMinBytes()
	res.L2.TotalOperandBytes = e.TotalOperandBytes()
	return res, nil
}

// Merge recombines partial Results derived over disjoint slices of one
// workload's space (DeriveRange) into the Result a full-range Derive
// produces: curves are Pareto-unioned, joint tables merged under the
// commutative min-rule, and mapping counts summed. All partials must share
// one L1 capacity — mixing capacities would silently change the feasibility
// filter. Stats are aggregated (Items/Evaluated summed, Elapsed summed as
// total CPU-side derivation time).
func Merge(parts ...*Result) (*Result, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("multilevel: Merge: no partial results")
	}
	res := &Result{L1CapacityBytes: parts[0].L1CapacityBytes, joint: map[int64]jointEntry{}}
	dramCurves := make([]*pareto.Curve, 0, len(parts))
	l2Curves := make([]*pareto.Curve, 0, len(parts))
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("multilevel: Merge: partial %d is nil", i)
		}
		if p.L1CapacityBytes != res.L1CapacityBytes {
			return nil, fmt.Errorf("multilevel: Merge: partial %d has L1 capacity %d, partial 0 has %d",
				i, p.L1CapacityBytes, res.L1CapacityBytes)
		}
		dramCurves = append(dramCurves, p.DRAM)
		l2Curves = append(l2Curves, p.L2)
		res.Mappings += p.Mappings
		res.Stats.Items += p.Stats.Items
		res.Stats.Evaluated += p.Stats.Evaluated
		res.Stats.Elapsed += p.Stats.Elapsed
		for key, je := range p.joint {
			if got, ok := res.joint[key]; !ok || got.better(je.dram, je.l2) {
				res.joint[key] = je
			}
		}
	}
	res.DRAM = pareto.Union(dramCurves...)
	res.DRAM.AlgoMinBytes = parts[0].DRAM.AlgoMinBytes
	res.DRAM.TotalOperandBytes = parts[0].DRAM.TotalOperandBytes
	res.L2 = pareto.Union(l2Curves...)
	res.L2.AlgoMinBytes = parts[0].L2.AlgoMinBytes
	res.L2.TotalOperandBytes = parts[0].L2.TotalOperandBytes
	return res, nil
}

// MinL2GivenOptimalDRAM returns, for an L2 capacity, the smallest L2->L1
// traffic achievable by a mapping that simultaneously attains the minimal
// DRAM traffic at that capacity. Because the loop order that minimizes
// DRAM traffic is generally not the one that minimizes L2 traffic, this
// value can exceed the unconstrained L2 bound — exactly the
// non-composability of per-level optima that makes the Fig. 7 probe a
// valid but potentially loose multi-level bound.
func (r *Result) MinL2GivenOptimalDRAM(l2CapBytes int64) (l2, dram int64, ok bool) {
	dram = -1
	for buf, je := range r.joint {
		if buf > l2CapBytes {
			continue
		}
		if dram < 0 || je.dram < dram {
			dram = je.dram
			l2 = je.l2
		} else if je.dram == dram && je.l2 < l2 {
			l2 = je.l2
		}
	}
	if dram < 0 {
		return 0, 0, false
	}
	return l2, dram, true
}

// GapPoint is CompositionGap's answer at one L2 capacity: the ratio
// between the L2 traffic of a DRAM-optimal mapping and the unconstrained
// L2 traffic bound (>= 1; > 1 means no single mapping attains both
// per-level optima). Feasible is false when no mapping fits the capacity.
type GapPoint struct {
	L2CapacityBytes int64
	FreeL2          int64 // unconstrained L2 traffic bound
	JointL2         int64 // best L2 traffic among DRAM-optimal mappings
	Ratio           float64
	Feasible        bool
}

// CompositionGap evaluates the gap at each capacity.
func (r *Result) CompositionGap(l2Caps []int64) []GapPoint {
	out := make([]GapPoint, 0, len(l2Caps))
	for _, c := range l2Caps {
		gp := GapPoint{L2CapacityBytes: c}
		free, ok1 := r.L2.AccessesAt(c)
		joint, _, ok2 := r.MinL2GivenOptimalDRAM(c)
		if ok1 && ok2 && free > 0 {
			gp.FreeL2 = free
			gp.JointL2 = joint
			gp.Ratio = float64(joint) / float64(free)
			gp.Feasible = true
		}
		out = append(out, gp)
	}
	return out
}
