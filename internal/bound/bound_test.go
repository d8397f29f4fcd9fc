package bound

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/snowcat"
)

func TestDeriveSmallGEMMBoundValidity(t *testing.T) {
	g := einsum.GEMM("g", 32, 16, 8)
	res := Derive(g, Options{})
	c := res.Curve
	if c.Empty() {
		t.Fatal("empty curve")
	}
	if res.Stats.MappingsEvaluated != mapping.SpaceSize(g) {
		t.Fatalf("evaluated %d mappings, space size is %d",
			res.Stats.MappingsEvaluated, mapping.SpaceSize(g))
	}
	// Bound validity: every mapping in the space is on or above the curve.
	mapping.Space(g, func(m *mapping.Mapping) {
		r := snowcat.Evaluate(g, m)
		acc, ok := c.AccessesAt(r.BufferBytes)
		if !ok || acc > r.AccessBytes {
			t.Fatalf("mapping %s below curve: (%d,%d) vs bound %d", m, r.BufferBytes, r.AccessBytes, acc)
		}
	})
	// The curve bottoms out at the algorithmic minimum (full buffering is
	// in the space).
	if c.MinAccessBytes() != g.AlgorithmicMinBytes() {
		t.Fatalf("curve min %d != algorithmic min %d", c.MinAccessBytes(), g.AlgorithmicMinBytes())
	}
	if c.AlgoMinBytes != g.AlgorithmicMinBytes() {
		t.Fatal("curve missing algo-min annotation")
	}
}

func TestDeriveMonotonicity(t *testing.T) {
	g := einsum.GEMM("g", 64, 32, 16)
	c := Derive(g, Options{}).Curve
	pts := c.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].BufferBytes <= pts[i-1].BufferBytes || pts[i].AccessBytes >= pts[i-1].AccessBytes {
			t.Fatalf("non-monotone frontier at %d: %v -> %v", i, pts[i-1], pts[i])
		}
	}
}

func TestDeriveDeterministicAcrossWorkerCounts(t *testing.T) {
	g := einsum.GEMM("g", 32, 32, 32)
	c1 := Derive(g, Options{Workers: 1}).Curve
	c4 := Derive(g, Options{Workers: 4}).Curve
	p1, p4 := c1.Points(), c4.Points()
	if len(p1) != len(p4) {
		t.Fatalf("worker counts disagree: %d vs %d points", len(p1), len(p4))
	}
	for i := range p1 {
		if p1[i] != p4[i] {
			t.Fatalf("point %d differs: %v vs %v", i, p1[i], p4[i])
		}
	}
}

func TestMaxEffectualMatchesClosedForm(t *testing.T) {
	// Sec. IV-1: maximal effectual buffer ~= smallest operand + smallest
	// rank + 1. With perfect factors the search cannot land exactly on the
	// closed form, but it must be within the same ballpark: between the
	// smallest operand and twice the closed form.
	cases := []struct{ m, k, n int64 }{
		{32, 32, 32},
		{64, 16, 64},
		{128, 8, 32},
	}
	for _, cs := range cases {
		g := einsum.GEMM("g", cs.m, cs.k, cs.n)
		c := Derive(g, Options{}).Curve
		maxEff := c.MaxEffectualBufferBytes() / g.ElementSize // elements
		closed := gemmMaxEffectualElements(cs.m, cs.k, cs.n)
		smallest := g.SmallestOperandElements()
		if maxEff < smallest || maxEff > 2*closed {
			t.Fatalf("GEMM %v: max effectual %d elements outside [%d, %d]",
				cs, maxEff, smallest, 2*closed)
		}
	}
}

// gemmMaxEffectualElements is the closed-form maximal effectual buffer
// size of a GEMM from Sec. IV-1: the size of its smallest operand plus
// the size of its smallest rank plus one, in elements.
func gemmMaxEffectualElements(m, k, n int64) int64 {
	return min(m*k, k*n, m*n) + min(m, k, n) + 1
}

func TestPeakOIMatchesCurve(t *testing.T) {
	g := einsum.GEMM("g", 64, 32, 16)
	c := Derive(g, Options{}).Curve
	peak := float64(g.MACs()) / (float64(c.MinAccessBytes()) / float64(g.ElementSize))
	closed := GEMMPeakOI(64, 32, 16)
	if math.Abs(peak-closed) > 1e-9 {
		t.Fatalf("peak OI from curve %f != closed form %f", peak, closed)
	}
}

func TestGEMMPeakOIConvergesToSmallestDim(t *testing.T) {
	// With M << K, N the peak OI approaches M.
	oi := GEMMPeakOI(16, 1<<14, 1<<14)
	if oi < 14 || oi > 16 {
		t.Fatalf("peak OI for 16 x 16k x 16k GEMM = %f, want ~16", oi)
	}
}

func TestProbeLevels(t *testing.T) {
	g := einsum.GEMM("g", 32, 32, 32)
	c := Derive(g, Options{}).Curve
	levels := ProbeLevels(c, map[string]int64{
		"L1":   256,
		"L2":   8192,
		"tiny": 1,
	})
	byName := map[string]LevelBound{}
	for _, lb := range levels {
		byName[lb.Level] = lb
	}
	if !byName["L1"].Feasible || !byName["L2"].Feasible {
		t.Fatal("expected L1/L2 probes to be feasible")
	}
	if byName["L1"].AccessBytes < byName["L2"].AccessBytes {
		t.Fatal("smaller level should have >= accesses")
	}
	if byName["tiny"].Feasible {
		t.Fatal("1-byte buffer should be infeasible")
	}
}

func TestLargerGEMMsMoveMoreData(t *testing.T) {
	// Fig. 10 headline: at the same capacity, bigger GEMMs move more data.
	small := Derive(einsum.GEMM("s", 64, 64, 64), Options{}).Curve
	large := Derive(einsum.GEMM("l", 256, 256, 256), Options{}).Curve
	buf := int64(4096)
	as, ok1 := small.AccessesAt(buf)
	al, ok2 := large.AccessesAt(buf)
	if !ok1 || !ok2 {
		t.Fatal("probe infeasible")
	}
	if al <= as {
		t.Fatalf("large GEMM accesses %d not above small %d", al, as)
	}
}

func TestBoundValidityProperty(t *testing.T) {
	// For random small GEMMs, every random mapping sits on or above the
	// derived curve.
	f := func(ms, ks, ns uint8) bool {
		m := int64(ms%16) + 1
		k := int64(ks%16) + 1
		n := int64(ns%16) + 1
		g := einsum.GEMM("g", m, k, n)
		c := Derive(g, Options{Workers: 1}).Curve
		ok := true
		mapping.Space(g, func(mp *mapping.Mapping) {
			r := snowcat.Evaluate(g, mp)
			acc, feasible := c.AccessesAt(r.BufferBytes)
			if !feasible || acc > r.AccessBytes {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
