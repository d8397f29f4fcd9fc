package snowcat

import (
	"math"

	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/nest"
	"repro/internal/shape"
)

// Accounting selects the per-tensor cost rule of one of the three
// evaluators: the paper's one count per transfer (EvaluateCompact),
// physical spill accounting (EvaluateCompactSpillCharged), or imperfect
// tiles (EvaluateImperfectCompact).
type Accounting int

// The Accounting rules, named after the evaluators they select.
const (
	Perfect Accounting = iota
	SpillCharged
	Imperfect
)

// Evaluator is a compiled form of an Einsum's Snowcat model. It avoids the
// per-call map allocations of Evaluate, which matters inside exhaustive
// mapspace traversals that evaluate hundreds of thousands of mappings:
// tile footprints come from the Einsum's shared rank-indexed projections
// (einsum.Compiled), the same primitive the three-level traversal uses.
// An Evaluator is not safe for concurrent use (it reuses scratch state
// between calls); parallel traversals build one per worker.
//
// Two entry points share one cost model. The Evaluate* methods score one
// mapping (one outer-loop order). MinCompact scores a whole tiling: the
// buffer term depends on the inner splits only, so every order of a
// tiling shares one buffer size and only its cheapest order can reach the
// Pareto frontier; MinCompact finds that order's access count exactly with
// the subset DP of nest.MinOverOrders, after nest.Reduce has merged the
// loops relevant to the same tensors and hoisted those relevant to all.
type Evaluator struct {
	e         *einsum.Einsum
	proj      *einsum.Compiled
	rankIdx   map[string]int
	rankShape []int64
	tensors   []compiledTensor

	// The ranks' relevance signatures for nest.Reduce: sig[i] has bit t
	// set when rank i is relevant to tensor t, pinned bit i when rank i
	// carries a grouping divisor, and all is the set of every tensor.
	sig    []uint64
	pinned uint64
	all    uint64

	// Scratch, rebuilt per call.
	nestBuf  []nest.Loop   // outer-loop nest of the mapping being scored
	splitBuf []shape.Split // the mapping's splits, indexed like e.Ranks
	inner    []int64       // the tiling's inner tiles, indexed like e.Ranks
	effTile  []float64     // its average tiles, under Imperfect
	splits   []shape.Split // the tiling MinCompact is scoring
	acct     Accounting    // its accounting rule
	active   []int         // its reduced loops: iterating ranks, one per merged class
	bounds   []int64       // their outer bounds (a class's product)
	hoist    int64         // product of the hoisted all-tensor bounds
	rel      []uint64      // per-tensor relevance masks over active
	orders   nest.OrderScratch[int64]
	charge   func(acc int64, t, r int, above int64) int64 // ev.chargeTensor
}

type compiledTensor struct {
	output   bool
	sizeElem int64
	relMask  uint64  // bit i: rank i is relevant
	groupDiv []int64 // per rank: grouping divisor, 1 if ungrouped
	grouped  bool    // any rank carries a grouping divisor > 1

	// Footprints of the tiling being scored (see tile).
	fp    int64
	fpEff float64
}

// NewEvaluator compiles e. The Einsum must be valid and have at most 64
// ranks and 64 tensors.
func NewEvaluator(e *einsum.Einsum) *Evaluator {
	n := len(e.Ranks)
	ev := &Evaluator{
		e:       e,
		proj:    e.Compile(),
		rankIdx: make(map[string]int, n),
		sig:     make([]uint64, n),
		all:     1<<len(e.Tensors) - 1,
		inner:   make([]int64, n),
		effTile: make([]float64, n),
	}
	for i, r := range e.Ranks {
		ev.rankIdx[r.Name] = i
		ev.rankShape = append(ev.rankShape, r.Shape)
	}
	for i := range e.Tensors {
		t := &e.Tensors[i]
		ct := compiledTensor{output: t.Output, sizeElem: ev.proj.Size(i), relMask: ev.proj.Relevance(i)}
		for j, r := range e.Ranks {
			gd := t.GroupDivFor(r.Name)
			ct.groupDiv = append(ct.groupDiv, gd)
			ct.grouped = ct.grouped || gd > 1
			ev.sig[j] |= (ct.relMask >> j & 1) << i
		}
		ev.tensors = append(ev.tensors, ct)
	}
	for j := range e.Ranks {
		if ev.proj.Grouped(j) {
			ev.pinned |= 1 << j
		}
	}
	ev.rel = make([]uint64, len(ev.tensors))
	ev.charge = ev.chargeTensor
	return ev
}

// Skips returns the tilings a frontier traversal of e under acct need
// not score, in the form mapping.Enum.VisitTilings takes: each rank's
// dominated split options (Skip.Reduce), and the automorphisms of e that
// leave every tiling's point unchanged under acct (Skip.Perms). Package
// bound states and proves the three lemmas; each rests on this package's
// cost formulas.
//
// Reduce: under Perfect and SpillCharged a batch rank
// (einsum.Compiled.Batch) enters every footprint as its inner tile and
// every count, spill reloads included, as its outer bound, so its inner
// tile 1 (option 0) dominates the rest. Under Imperfect an ungrouped rank
// enters the access count only through its outer bound and its effective
// tile, shape over outer bound (effectiveTiles), so the smallest
// candidate of each run sharing an outer bound dominates the run;
// groupedFactor reads the inner tile itself, so grouped ranks are left
// alone. An entry is j itself where no rule applies, a dominator has a lower
// index and is its own dominator, and a rank with no dominated option has
// a nil row.
//
// Perms: an automorphism (einsum.Compiled.Automorphisms) maps every
// tensor's footprints and size onto another tensor of the same role, so
// under Perfect and SpillCharged, whose arithmetic is exact integer
// arithmetic, it maps each order's counts onto another order's. Under
// Imperfect the effective footprints are floating point, so a permutation
// is admitted only when MeanFootprint evaluates the image in an order
// IEEE makes bit-identical (einsum.Compiled.KeepsFloatOrder); the ceil and
// everything after it then see the same numbers.
func Skips(e *einsum.Einsum, acct Accounting, en *mapping.Enum) mapping.Skip {
	c := e.Compile()
	skip := mapping.Skip{Reduce: make([][]int, len(e.Ranks))}
	for i := range e.Ranks {
		opts := en.Options(i)
		row := make([]int, len(opts))
		dominated := false
		for j, s := range opts {
			row[j] = j
			switch {
			case acct == Imperfect:
				if !c.Grouped(i) && j > 0 && opts[j-1].Outer == s.Outer {
					row[j] = row[j-1]
				}
			case c.Batch(i):
				if j > 0 && opts[0].Inner == 1 {
					row[j] = 0
				}
			}
			dominated = dominated || row[j] != j
		}
		if dominated {
			skip.Reduce[i] = row
		}
	}
	for _, p := range c.Automorphisms() {
		if acct != Imperfect || c.KeepsFloatOrder(p) {
			skip.Perms = append(skip.Perms, p)
		}
	}
	return skip
}

// EvaluateCompact returns only the buffer requirement and access count in
// bytes — the two numbers the Orojenesis frontier needs.
func (ev *Evaluator) EvaluateCompact(m *mapping.Mapping) (bufBytes, accessBytes int64) {
	return ev.evaluate(Perfect, m)
}

// EvaluateCompactSpillCharged is EvaluateCompact with physical partial-sum
// accounting: every output transfer beyond the first write of a region is
// a spill that must also be read back, so output traffic beyond the
// tensor size is doubled. The paper's model counts each transfer once;
// this variant supports the spill-accounting ablation.
func (ev *Evaluator) EvaluateCompactSpillCharged(m *mapping.Mapping) (bufBytes, accessBytes int64) {
	return ev.evaluate(SpillCharged, m)
}

// evaluate scores one mapping under acct: the product rule on its outer
// nest gives each tensor's transfer count, and cost turns it into traffic.
func (ev *Evaluator) evaluate(acct Accounting, m *mapping.Mapping) (bufBytes, accessBytes int64) {
	splits := ev.splitBuf[:0]
	for _, r := range ev.e.Ranks {
		splits = append(splits, m.Splits[r.Name])
	}
	ev.splitBuf = splits
	buf := ev.tile(acct, splits)
	loops := ev.loops(m)
	for i := range ev.tensors {
		t := &ev.tensors[i]
		accessBytes += ev.cost(acct, t, ev.iterations(t, loops, m))
	}
	es := ev.e.ElementSize
	return buf * es, accessBytes * es
}

// MinCompact returns the buffer requirement of the tiling splits (indexed
// like the Einsum's ranks) and the least access count, in bytes, over all
// of its outer-loop orders under acct. The result equals the minimum of
// the acct evaluator over every order Enum.Visit emits for the tiling,
// found in k·2^(k-1) DP steps for k iterating ranks instead of k! orders.
//
// Exactness: a tensor's transfer count under an order is P/∏bounds(S),
// where P is the product of all outer bounds and S the set of loops
// inside its innermost relevant loop r; with a grouping divisor on r it is
// P/∏bounds(S∪{r}) times r's grouped factor. Each accounting rule's cost
// (the plain product, the spill-charged reload, the imperfect
// max(size, ceil(fpEff·iters))) is a function of that count alone, so of
// (S, r) alone, which is what nest.MinOverOrders requires. Each is also
// nondecreasing in the count, which is what nest.Reduce's two exchange
// rules require: ranks relevant to the same tensors merge into one loop
// (the Fig. 12 convolutions' six ranks form three such classes), and
// ranks relevant to every tensor (a BMM's H) leave the DP as a factor
// of every count. Ranks with a grouping divisor are never merged or
// hoisted: their grouped factor is not a plain bound. Tensors with no
// iterating relevant rank left cost one transfer times the hoisted
// factor under every order.
func (ev *Evaluator) MinCompact(acct Accounting, splits []shape.Split) (bufBytes, accessBytes int64) {
	buf := ev.tile(acct, splits)
	ev.splits, ev.acct = splits, acct
	ev.active, ev.bounds = ev.active[:0], ev.bounds[:0]
	for i, s := range splits {
		if s.Outer > 1 {
			ev.active = append(ev.active, i)
			ev.bounds = append(ev.bounds, s.Outer)
		}
	}
	n, hoist := nest.Reduce(ev.active, ev.bounds, ev.sig, ev.pinned, ev.all)
	ev.active, ev.bounds, ev.hoist = ev.active[:n], ev.bounds[:n], hoist
	var once int64
	for i := range ev.tensors {
		t := &ev.tensors[i]
		ev.rel[i] = nest.LoopMask(t.relMask, ev.active)
		if ev.rel[i] == 0 {
			once += ev.cost(acct, t, hoist)
		}
	}
	acc := nest.MinOverOrders(&ev.orders, ev.bounds, ev.rel, once, ev.charge, minInt64)
	es := ev.e.ElementSize
	return buf * es, acc * es
}

// chargeTensor is MinCompact's nest.MinOverOrders hook: tensor ti closes
// at reduced loop r with the outside loops multiplying to above, under the
// hoisted loops. A grouped rank is never merged, so its loop's bound is
// its own.
func (ev *Evaluator) chargeTensor(acc int64, ti, r int, above int64) int64 {
	t := &ev.tensors[ti]
	factor := ev.bounds[r]
	if gd := t.groupDiv[ev.active[r]]; gd > 1 {
		factor = groupedFactor(factor, ev.splits[ev.active[r]].Inner, gd)
	}
	return acc + ev.cost(ev.acct, t, ev.hoist*above*factor)
}

func minInt64(a, b int64) int64 { return min(a, b) }

// groupedFactor is the transfer factor of a grouped innermost relevant
// loop: across the loop, consecutive head iterations within a group reuse
// the same weight tile, so only distinct group tiles are transferred.
func groupedFactor(bound, inner, groupDiv int64) int64 {
	return shape.Max(1, shape.CeilDiv(bound*inner, shape.Max(inner, groupDiv)))
}

// tile caches each tensor's footprints for the tiling splits (the
// effective one only under Imperfect) and returns the buffer requirement
// in elements: the sum of the full inner-tile footprints.
func (ev *Evaluator) tile(acct Accounting, splits []shape.Split) (bufElems int64) {
	for i, s := range splits {
		ev.inner[i] = s.Inner
	}
	if acct == Imperfect {
		ev.effectiveTiles(splits)
	}
	for i := range ev.tensors {
		t := &ev.tensors[i]
		t.fp = ev.proj.Footprint(i, ev.inner)
		bufElems += t.fp
		if acct == Imperfect {
			t.fpEff = ev.proj.MeanFootprint(i, ev.effTile)
		}
	}
	return bufElems
}

// cost converts tensor t's transfer count into its access count in
// elements under acct, using the footprints tile cached.
func (ev *Evaluator) cost(acct Accounting, t *compiledTensor, iters int64) int64 {
	switch acct {
	case SpillCharged:
		elems := t.fp * iters
		if t.output && elems > t.sizeElem {
			elems += elems - t.sizeElem // reload of spilled partials
		}
		return elems
	case Imperfect:
		return max(int64(math.Ceil(t.fpEff*float64(iters))), t.sizeElem)
	}
	return t.fp * iters
}

// loops assembles the mapping's outer-loop nest into the Evaluator's
// scratch buffer — one split lookup per rank per mapping, shared across
// tensors.
func (ev *Evaluator) loops(m *mapping.Mapping) []nest.Loop {
	loops := ev.nestBuf[:0]
	for _, r := range m.OuterOrder {
		loops = append(loops, nest.Loop{Rank: r, Bound: m.Splits[r].Outer})
	}
	ev.nestBuf = loops
	return loops
}

// iterations instantiates the shared product rule (internal/nest) for one
// tensor, with groupedFactor overriding a grouped innermost relevant loop.
func (ev *Evaluator) iterations(t *compiledTensor, loops []nest.Loop, m *mapping.Mapping) int64 {
	relevant := func(r string) bool { return t.relMask>>ev.rankIdx[r]&1 == 1 }
	if !t.grouped {
		return nest.Iterations(loops, relevant)
	}
	return nest.IterationsGrouped(loops, relevant, func(l nest.Loop) int64 {
		gd := t.groupDiv[ev.rankIdx[l.Rank]]
		if gd <= 1 {
			return l.Bound
		}
		return groupedFactor(l.Bound, m.Splits[l.Rank].Inner, gd)
	})
}
