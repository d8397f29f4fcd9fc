package mapping

import (
	"fmt"

	"repro/internal/einsum"
	"repro/internal/shape"
)

// Enum is an index-addressable view of a Snowcat mapspace. The tiling
// combinations — one split choice per rank — form a mixed-radix space of
// Tilings() flat indices; each index expands into its distinct outer-loop
// permutations at Visit time, or is passed whole to VisitTilings. Flat
// addressing is what lets a parallel traversal chunk the space evenly
// across workers instead of sharding by the divisor structure of one rank
// (which capped utilization at the first rank's split count, e.g. two
// workers for a prime leading rank).
type Enum struct {
	rankNames []string
	options   [][]shape.Split
}

// NewEnum builds the perfect-factor enumeration of e's mapspace: every
// rank's split options are its two-level perfect factorizations.
func NewEnum(e *einsum.Einsum) *Enum {
	en := &Enum{}
	for _, r := range e.Ranks {
		en.rankNames = append(en.rankNames, r.Name)
		en.options = append(en.options, shape.Splits(r.Shape))
	}
	return en
}

// NewImperfectEnum builds the widened imperfect-factor enumeration: each
// rank's inner-tile candidates are its divisors plus up to extra geometric
// samples, with outer = ceil(shape/inner) (partial boundary tiles).
func NewImperfectEnum(e *einsum.Einsum, extra int) *Enum {
	en := &Enum{}
	for _, r := range e.Ranks {
		cands := ImperfectCandidates(r.Shape, extra)
		sp := make([]shape.Split, len(cands))
		for j, c := range cands {
			sp[j] = shape.Split{Inner: c, Outer: shape.CeilDiv(r.Shape, c)}
		}
		en.rankNames = append(en.rankNames, r.Name)
		en.options = append(en.options, sp)
	}
	return en
}

// Tilings returns the number of flat indices (tiling combinations; outer
// loop orders are expanded per tiling by Visit). It panics when that
// number does not fit an int64; Size reports the overflow as an error.
func (en *Enum) Tilings() int64 {
	n, err := en.Size()
	if err != nil {
		panic(err.Error())
	}
	return n
}

// Size returns Tilings, or an error when the product of the per-rank
// split counts overflows int64.
func (en *Enum) Size() (int64, error) {
	if len(en.options) == 0 {
		return 0, nil
	}
	n := int64(1)
	for _, opts := range en.options {
		var ok bool
		if n, ok = shape.MulCount(n, int64(len(opts))); !ok {
			return 0, fmt.Errorf("mapping: tiling space over ranks %v overflows int64", en.rankNames)
		}
	}
	return n, nil
}

// Visit enumerates the tilings with flat index in [lo, hi), calling visit
// for every mapping (tiling x distinct outer order). The last rank's index
// varies fastest, so Visit(0, Tilings()) matches Space's order exactly.
// The Mapping value is reused between calls; visitors that retain it must
// Clone it.
func (en *Enum) Visit(lo, hi int64, visit func(*Mapping)) {
	m := &Mapping{Splits: make(map[string]shape.Split, len(en.rankNames))}
	en.VisitTilings(lo, hi, Skip{}, 0, func(splits []shape.Split, _ bool) {
		for i, r := range en.rankNames {
			m.Splits[r] = splits[i]
		}
		emitPermutations(m, en.rankNames, visit)
	})
}

// Options returns rank i's split options in index order (the digit
// values of its place in the flat index). The slice is shared; callers
// must not modify it.
func (en *Enum) Options(i int) []shape.Split { return en.options[i] }

// Skip names the tilings a frontier traversal need not score, for
// VisitTilings. Both rules are fixed once per derivation
// (snowcat.Skips); the zero Skip skips nothing.
type Skip struct {
	// Reduce maps each rank's split options to the options that dominate
	// them: Reduce[i][j] is an index at most j whose own entry is itself,
	// and a missing or nil row maps every option to itself. A tiling's
	// reduction replaces every option by its entry; its point dominates
	// the tiling's.
	Reduce [][]int

	// Perms are rank permutations that leave every tiling's point
	// unchanged: the image of a tiling under Perms[k] gives rank Perms[k][i]
	// rank i's option. Each maps ranks onto ranks with the same split
	// options.
	Perms [][]int
}

// VisitTilings enumerates the tilings with flat index in [lo, hi) in
// Visit's order, calling visit once per tiling with its splits indexed
// like the Einsum's ranks. Outer orders are not expanded: a per-tiling
// evaluator (snowcat.Evaluator.MinCompact) takes the minimum over them,
// and Orders(splits) counts the mappings the tiling stands for. The slice
// is reused between calls, and only the digits that change are rewritten:
// visitors must not modify it, and those that retain it must copy it.
//
// skipped reports that the tiling's reduction or its image under one of
// skip's permutations — a tiling whose point equals or dominates its own
// — has a lower flat index of at least floor: a frontier over a range
// that starts at or below floor and covers [lo, hi) receives that
// tiling's point (package bound proves it), so it need not score this
// one. The odometer keeps the index distance to the reduction and each
// image's index as it advances, so this costs no decode per tiling.
func (en *Enum) VisitTilings(lo, hi int64, skip Skip, floor int64, visit func(splits []shape.Split, skipped bool)) {
	n := len(en.rankNames)
	if n == 0 || lo >= hi {
		return
	}
	// back[i][j] is how far rank i's option j moves the flat index to its
	// replacement: the option's distance times the digit's weight.
	// moved[i][k] is the weight of rank i's digit in the index of the
	// image under skip.Perms[k]: the weight of the rank it moves to.
	back := make([][]int64, n)
	weight := make([]int64, n)
	stride := int64(1)
	for i := n - 1; i >= 0; i-- {
		if i < len(skip.Reduce) && skip.Reduce[i] != nil {
			back[i] = make([]int64, len(skip.Reduce[i]))
			for j, r := range skip.Reduce[i] {
				back[i][j] = int64(j-r) * stride
			}
		}
		weight[i] = stride
		stride *= int64(len(en.options[i]))
	}
	moved := make([][]int64, n)
	for i := range moved {
		for _, p := range skip.Perms {
			moved[i] = append(moved[i], weight[p[i]])
		}
	}
	// Decode lo into mixed-radix digits, then advance odometer-style.
	idx := make([]int, n)
	rem := lo
	var gap int64                           // flat index minus the reduction's
	image := make([]int64, len(skip.Perms)) // the images' flat indices
	for i := n - 1; i >= 0; i-- {
		k := int64(len(en.options[i]))
		idx[i] = int(rem % k)
		rem /= k
		if back[i] != nil {
			gap += back[i][idx[i]]
		}
		for k, w := range moved[i] {
			image[k] += int64(idx[i]) * w
		}
	}
	splits := make([]shape.Split, n)
	for i := range splits {
		splits[i] = en.options[i][idx[i]]
	}
	for flat := lo; flat < hi; flat++ {
		skipped := gap > 0 && flat-gap >= floor
		for _, p := range image {
			skipped = skipped || p < flat && p >= floor
		}
		visit(splits, skipped)
		for i := n - 1; i >= 0; i-- {
			b := back[i]
			if b != nil {
				gap -= b[idx[i]]
			}
			step := int64(1)
			idx[i]++
			if idx[i] == len(en.options[i]) {
				idx[i] = 0
				step = 1 - int64(len(en.options[i]))
			}
			if b != nil {
				gap += b[idx[i]]
			}
			for k, w := range moved[i] {
				image[k] += step * w
			}
			splits[i] = en.options[i][idx[i]]
			if idx[i] != 0 {
				break
			}
		}
	}
}
