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
	en.VisitTilings(lo, hi, func(splits []shape.Split) {
		for i, r := range en.rankNames {
			m.Splits[r] = splits[i]
		}
		emitPermutations(m, en.rankNames, visit)
	})
}

// VisitTilings enumerates the tilings with flat index in [lo, hi) in
// Visit's order, calling visit once per tiling with its splits indexed
// like the Einsum's ranks. Outer orders are not expanded: a per-tiling
// evaluator (snowcat.Evaluator.MinCompact) takes the minimum over them,
// and Orders(splits) counts the mappings the tiling stands for. The slice
// is reused between calls; visitors that retain it must copy it.
func (en *Enum) VisitTilings(lo, hi int64, visit func(splits []shape.Split)) {
	n := len(en.rankNames)
	if n == 0 || lo >= hi {
		return
	}
	// Decode lo into mixed-radix digits, then advance odometer-style.
	idx := make([]int, n)
	rem := lo
	for i := n - 1; i >= 0; i-- {
		k := int64(len(en.options[i]))
		idx[i] = int(rem % k)
		rem /= k
	}
	splits := make([]shape.Split, n)
	for flat := lo; flat < hi; flat++ {
		for i := range splits {
			splits[i] = en.options[i][idx[i]]
		}
		visit(splits)
		for i := n - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(en.options[i]) {
				break
			}
			idx[i] = 0
		}
	}
}
