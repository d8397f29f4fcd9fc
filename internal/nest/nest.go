// Package nest is the shared access model of the Orojenesis flow: the
// level-generic loop-nest iteration rule of Fig. 6. Every analytical
// evaluator in this repo — the two-level Snowcat model, the three-level
// joint bound, and the Simba validation model — expresses its per-tensor
// transfer count as the same product rule over a composite nest of
// (rank, bound) loops, so the rule lives here exactly once and the
// evaluators differ only in how they assemble the nest and the tensor's
// footprint.
//
// The rule: a tensor is re-transferred once per iteration of every loop
// from the outermost down to the innermost loop that is *relevant* to it
// (i.e. that advances the tensor's tile). Loops below the innermost
// relevant loop reuse the resident tile and contribute nothing; loops with
// bound 1 are transparent at any position.
//
// MinOverOrders minimizes a sum of per-tensor costs of that rule over all
// orders of a nest without enumerating them: a tensor's count depends on
// the order only through its innermost relevant loop and the set of loops
// inside it, so a DP over subsets of the loops (placed innermost first)
// is exact. Reduce shrinks that problem first by two exchange arguments
// on loop relevance: loops relevant to the same tensors merge into one,
// and a loop relevant to every tensor leaves the DP as a factor of every
// count. Loops that carry a grouping divisor take part in neither rule.
package nest

import "math/bits"

// Loop is one loop of a composite nest, outermost first: the named rank is
// iterated Bound times at this level. Multi-level evaluators concatenate
// per-level nests (outer level first) into one composite nest.
type Loop struct {
	Rank  string
	Bound int64
}

// Iterations applies the product rule to a nest: the product of the bounds
// of all loops from the outermost down to the innermost loop with Bound > 1
// whose rank is relevant to the tensor. Returns 1 when no relevant loop
// iterates (the tensor's tile stays resident for the whole execution).
func Iterations(loops []Loop, relevant func(rank string) bool) int64 {
	return IterationsGrouped(loops, relevant, nil)
}

// IterationsGrouped is Iterations with a hook for grouped-rank reuse
// (grouped BMM weight sharing): when innermost is non-nil it supplies the
// factor contributed by the innermost relevant loop in place of its bound —
// consecutive iterations within a group revisit the same tile, so the
// effective transfer count of that loop shrinks. All outer loops still
// contribute their full bounds.
//
// This is the single implementation of the paper's Fig. 6 product rule;
// every evaluator instantiates it rather than re-deriving it.
func IterationsGrouped(loops []Loop, relevant func(rank string) bool, innermost func(Loop) int64) int64 {
	inner := -1
	for i := len(loops) - 1; i >= 0; i-- {
		if loops[i].Bound > 1 && relevant(loops[i].Rank) {
			inner = i
			break
		}
	}
	iters := int64(1)
	for i := 0; i <= inner; i++ {
		l := loops[i]
		if l.Bound == 1 {
			continue
		}
		factor := l.Bound
		if i == inner && innermost != nil {
			factor = innermost(l)
		}
		iters *= factor
	}
	return iters
}

// OrderScratch holds the reusable tables of MinOverOrders, so a traversal
// that solves one order problem per tiling allocates them once per worker.
type OrderScratch[V any] struct {
	prod []int64
	dp   []V
}

// LoopMask re-indexes a rank relevance mask (bit i: rank i) onto the
// iterating loops of an order problem, loops[j] being loop j's rank: the
// rel masks MinOverOrders takes.
func LoopMask(rankMask uint64, loops []int) uint64 {
	var m uint64
	for j, r := range loops {
		m |= (rankMask >> r & 1) << j
	}
	return m
}

// maxOrderLoops caps MinOverOrders' table at 2^24 states per value.
const maxOrderLoops = 24

// MinOverOrders returns the best total transfer cost over every order of
// the iterating loops bounds[0..k) (all bounds > 1), without enumerating
// the k! orders.
//
// By the product rule a tensor's transfer count depends on an order only
// through its innermost relevant loop r and the set of loops placed
// outside r: it is above*bounds[r] (or a grouped override of the last
// factor), with above the product of the outside bounds. So the order is
// built from the innermost loop outward. Placing loop r directly outside
// an already-placed inner set S "closes" every tensor that is relevant to
// r and to nothing in S, and each closing tensor's cost depends on (S, r)
// alone. The best total over all orders of a set therefore satisfies
//
//	best(S ∪ {r}) = better over r of best(S) + Σ costs of tensors closing at (S, r)
//
// which the subset DP evaluates in k·2^(k-1) steps instead of k! orders.
//
// rel[t] is tensor t's relevance mask over the loops (bit j = loop j).
// charge(acc, t, r, above) adds tensor t's cost, for innermost relevant
// loop r under outside product above, to the partial total acc. Tensors
// with a zero mask are never charged: the caller folds their one-transfer
// cost into zero, the starting total. better(a, b) combines two candidate
// totals into the preferred one. The DP is exact when better is
// associative, commutative and idempotent and charging distributes over
// it, as it does for min over integer sums, a lexicographic min over
// pairs, or a tuple of such mins kept componentwise.
func MinOverOrders[V any](s *OrderScratch[V], bounds []int64, rel []uint64, zero V,
	charge func(acc V, t, r int, above int64) V, better func(a, b V) V) V {
	k := len(bounds)
	if k > maxOrderLoops {
		panic("nest: MinOverOrders: more than 24 iterating loops")
	}
	states := 1 << k
	if len(s.prod) < states {
		s.prod = make([]int64, states)
		s.dp = make([]V, states)
	}
	prod, dp := s.prod[:states], s.dp[:states]
	prod[0] = 1
	for set := 1; set < states; set++ {
		low := set & -set
		prod[set] = prod[set^low] * bounds[bits.TrailingZeros(uint(low))]
	}
	full := states - 1
	dp[0] = zero
	for set := 1; set < states; set++ {
		above := prod[full^set]
		var best V
		for rest := set; rest != 0; rest &= rest - 1 {
			r := bits.TrailingZeros(uint(rest))
			inner := uint64(set &^ (1 << r))
			acc := dp[inner]
			for t, m := range rel {
				if m>>r&1 == 1 && m&inner == 0 {
					acc = charge(acc, t, r, above)
				}
			}
			if rest == set {
				best = acc
			} else {
				best = better(best, acc)
			}
		}
		dp[set] = best
	}
	return dp[full]
}

// Reduce shrinks the order problem of the iterating loops ranks[j] (with
// bounds[j] > 1) before MinOverOrders, by two exact rules over the ranks'
// relevance signatures: sig[r] is the set of tensors rank r is relevant to
// (bit t), and all the set of every tensor. Ranks in pinned (bit r: rank r
// carries a grouping divisor for some tensor) take part in neither rule.
//
//   - Merge: loops whose ranks share a signature become one loop whose
//     bound is the product of theirs, kept at the first one's position.
//   - Hoist: a loop whose rank is relevant to every tensor leaves the
//     problem; the product of the hoisted bounds is returned as hoist,
//     and every tensor's count in the reduced problem, the one transfer
//     of a tensor with no relevant loop left included, is multiplied by it.
//
// Reduce rewrites ranks and bounds in place and returns the reduced loop
// count n: the reduced problem is ranks[:n], bounds[:n].
//
// Both rules hold for any cost that is nondecreasing in the transfer
// count, by exchange arguments on an optimal order.
//
// Merge. Let a and b share a signature, a outside b. Move a inward until
// it sits directly outside b. For a tensor relevant to both, a and b stay
// at or outside its innermost relevant loop, which does not change, so
// neither does its count. For any other tensor, a can only pass from
// outside its innermost relevant loop to inside it, so its count can only
// fall. So some optimal order keeps a and b adjacent, and an adjacent
// pair costs exactly what one loop with the product bound costs: every
// tensor sees both loops on the same side of its innermost relevant loop.
// A grouped loop is excluded because its own factor replaces its bound
// when it is a tensor's innermost relevant loop, so it does not behave as
// a factor of a product bound.
//
// Hoist. A loop h relevant to every tensor sits at or outside every
// tensor's innermost relevant loop in every order. Moving it outermost
// keeps it outside every innermost relevant loop it was outside of. For a
// tensor whose innermost relevant loop was h itself, the count was
// bounds[h] times the product of every loop outside h. Afterwards its
// innermost relevant loop is the next relevant loop r outward of h's old
// place, and its count is bounds[h] times r's factor times the loops
// outside r (bounds[h] alone if there is no such r). That is no more,
// since r and the loops outside it all lay outside h and r's factor (its
// bound, or a grouped factor) is at most its bound. So some
// optimal order has every hoistable loop outermost, where each multiplies
// every count, one-transfer counts included. A grouped loop is excluded
// because, as a tensor's innermost relevant loop, it contributes its
// grouped factor rather than its bound.
func Reduce(ranks []int, bounds []int64, sig []uint64, pinned, all uint64) (n int, hoist int64) {
	hoist = 1
next:
	for j, r := range ranks {
		b := bounds[j]
		if pinned>>r&1 == 0 {
			if sig[r] == all {
				hoist *= b
				continue
			}
			for i, q := range ranks[:n] {
				if pinned>>q&1 == 0 && sig[q] == sig[r] {
					bounds[i] *= b
					continue next
				}
			}
		}
		ranks[n], bounds[n] = r, b
		n++
	}
	return n, hoist
}
