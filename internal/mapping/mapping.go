// Package mapping represents mappings of an Einsum onto the Snowcat proxy
// architecture (paper Sec. III-A, Fig. 4): a two-level tiling
// (buffer-resident inner tile + backing store outer loops) with an
// explicit outer-loop order. It also enumerates the complete Snowcat
// mapspace for a workload — every perfect two-level tiling × every outer
// permutation — which is what the Orojenesis flow (Fig. 5) traverses
// exhaustively, plus the Ruby-style imperfect-factor extension.
//
// The enumeration has two granularities. Enum.Visit emits every mapping
// (tiling × distinct outer order) and is the per-order reference.
// Enum.VisitTilings emits each tiling once: the buffer requirement of a
// tiling does not depend on its outer order, so a derivation only needs
// the cheapest order, which snowcat.Evaluator.MinCompact computes exactly
// by subset DP over the active ranks (2^k states instead of k! orders).
// Orders reports how many mappings such a tiling stands for.
package mapping

import (
	"fmt"
	"strings"

	"repro/internal/einsum"
	"repro/internal/shape"
)

// Mapping is one point in the Snowcat mapspace: each rank is split into a
// buffer tile (Inner) iterated by an outer loop (Outer), and OuterOrder
// gives the outer loop nest from outermost to innermost. Inner loop order
// does not affect the two-level data movement model and is not represented.
type Mapping struct {
	Splits     map[string]shape.Split
	OuterOrder []string
}

// Clone returns a deep copy of the mapping.
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{
		Splits:     make(map[string]shape.Split, len(m.Splits)),
		OuterOrder: append([]string(nil), m.OuterOrder...),
	}
	for k, v := range m.Splits {
		c.Splits[k] = v
	}
	return c
}

// TileSizes returns the per-rank inner (buffer) tile sizes.
func (m *Mapping) TileSizes() map[string]int64 {
	t := make(map[string]int64, len(m.Splits))
	for r, s := range m.Splits {
		t[r] = s.Inner
	}
	return t
}

// Validate checks that the mapping covers exactly the ranks of e with
// perfect factorizations, and that OuterOrder is a permutation of the ranks.
func (m *Mapping) Validate(e *einsum.Einsum) error {
	if len(m.Splits) != len(e.Ranks) {
		return fmt.Errorf("mapping: %d splits for %d ranks", len(m.Splits), len(e.Ranks))
	}
	for _, r := range e.Ranks {
		s, ok := m.Splits[r.Name]
		if !ok {
			return fmt.Errorf("mapping: missing split for rank %s", r.Name)
		}
		if s.Inner < 1 || s.Outer < 1 || s.Inner*s.Outer != r.Shape {
			return fmt.Errorf("mapping: rank %s split %dx%d does not cover shape %d",
				r.Name, s.Inner, s.Outer, r.Shape)
		}
	}
	if len(m.OuterOrder) != len(e.Ranks) {
		return fmt.Errorf("mapping: outer order has %d entries for %d ranks",
			len(m.OuterOrder), len(e.Ranks))
	}
	seen := map[string]bool{}
	for _, r := range m.OuterOrder {
		if _, ok := m.Splits[r]; !ok {
			return fmt.Errorf("mapping: outer order names unknown rank %s", r)
		}
		if seen[r] {
			return fmt.Errorf("mapping: outer order repeats rank %s", r)
		}
		seen[r] = true
	}
	return nil
}

// String renders the mapping as a loop nest, outer loops first, e.g.
// "for n1 in [0,4) / for k1 in [0,2) / for m1 in [0,8) | buf: M0=4 K0=16 N0=8".
func (m *Mapping) String() string {
	var b strings.Builder
	for i, r := range m.OuterOrder {
		if i > 0 {
			b.WriteString(" / ")
		}
		fmt.Fprintf(&b, "for %s1 in [0,%d)", strings.ToLower(r), m.Splits[r].Outer)
	}
	b.WriteString(" | buf:")
	for _, r := range m.OuterOrder {
		fmt.Fprintf(&b, " %s0=%d", r, m.Splits[r].Inner)
	}
	return b.String()
}

// Space enumerates the complete Snowcat mapspace of e, invoking visit for
// every mapping. The same Mapping value is reused between calls; visitors
// that retain it must Clone it. Enumeration is deterministic.
//
// Permutations of outer loops whose bound is 1 are skipped (they are
// no-ops in the data movement model), which keeps the traversal close to
// the number of *distinct* mappings.
func Space(e *einsum.Einsum, visit func(*Mapping)) {
	en := NewEnum(e)
	en.Visit(0, en.Tilings(), visit)
}

// emitPermutations calls visit once per distinct outer-loop order for the
// current tiling. Loops with outer bound 1 are pinned innermost in a fixed
// order since their position is immaterial.
func emitPermutations(m *Mapping, rankNames []string, visit func(*Mapping)) {
	var active, inactive []string
	for _, r := range rankNames {
		if m.Splits[r].Outer > 1 {
			active = append(active, r)
		} else {
			inactive = append(inactive, r)
		}
	}
	perms := shape.Permutations(len(active))
	order := make([]string, 0, len(rankNames))
	for _, p := range perms {
		order = order[:0]
		for _, i := range p {
			order = append(order, active[i])
		}
		order = append(order, inactive...)
		m.OuterOrder = order
		visit(m)
	}
}

// SpaceSize returns the number of mappings Space will visit for e.
func SpaceSize(e *einsum.Einsum) int64 {
	// Group tilings by their number of active (outer > 1) loops.
	var count func(i int, active int, acc int64) int64
	count = func(i, active int, acc int64) int64 {
		if i == len(e.Ranks) {
			return acc * shape.Factorial(active)
		}
		var total int64
		for _, s := range shape.Splits(e.Ranks[i].Shape) {
			a := active
			if s.Outer > 1 {
				a++
			}
			total += count(i+1, a, acc)
		}
		return total
	}
	return count(0, 0, 1)
}

// Orders returns the number of distinct outer-loop orders Visit emits for
// a tiling: active! for its active (outer > 1) ranks. It is the number of
// mappings a per-tiling evaluation represents.
func Orders(splits []shape.Split) int64 {
	active := 0
	for _, s := range splits {
		if s.Outer > 1 {
			active++
		}
	}
	return shape.Factorial(active)
}
