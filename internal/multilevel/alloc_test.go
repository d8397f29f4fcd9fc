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
}
