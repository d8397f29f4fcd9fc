package multilevel

import (
	"testing"

	"repro/internal/einsum"
	"repro/internal/shape"
)

var sinkElems int64

func TestComboScoringDoesNotAllocate(t *testing.T) {
	e := einsum.GEMM("g", 64, 48, 32)
	c := newCombo(e)
	for i, r := range e.Ranks {
		opts := shape.ThreeSplits(r.Shape)
		c.splits[i] = opts[len(opts)/2]
	}
	allocs := testing.AllocsPerRun(100, func() {
		l1 := c.l1Elems()
		l2, dram, freeL2, jointL2 := c.best()
		sinkElems = l1 + l2 + dram + freeL2 + jointL2
	})
	if allocs != 0 {
		t.Fatalf("scoring one combination allocates %v times", allocs)
	}

	// The memoized path, on a one-slot memo: alternating two combinations
	// with different L0 and T keys misses every table on every call,
	// repeating one hits every table after the first.
	options, _, err := threeSplits(e)
	if err != nil {
		t.Fatal(err)
	}
	m := newMemo(e, 1)
	type pick struct{ k0, kT int64 }
	var picks [2]pick
	score := func(p int) {
		var k0, kT int64
		for i, opts := range options {
			o := &opts[len(opts)/(2+p)]
			c.splits[i] = o.ThreeSplit
			k0 += o.k0
			kT += o.kT
		}
		picks[p] = pick{k0, kT}
		l1 := m.l1Elems(c, k0)
		s, dram, freeL2, jointL2 := m.best(c, kT)
		sinkElems = l1 + s.l2Elems + dram + freeL2 + jointL2
	}
	for _, tc := range []struct {
		name  string
		combo func(i int) int
	}{
		{"miss", func(i int) int { return i & 1 }},
		{"hit", func(int) int { return 0 }},
	} {
		i := 0
		allocs := testing.AllocsPerRun(100, func() {
			score(tc.combo(i))
			i++
		})
		if allocs != 0 {
			t.Errorf("memoized scoring (%s) allocates %v times", tc.name, allocs)
		}
	}
	if picks[0].k0 == picks[1].k0 || picks[0].kT == picks[1].kT {
		t.Fatalf("the two combinations share a key (%v): the miss case hits", picks)
	}
}
