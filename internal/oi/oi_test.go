package oi

import (
	"math"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/pareto"
)

func testCurve() *pareto.Curve {
	return pareto.FromPoints([]pareto.Point{
		{BufferBytes: 100, AccessBytes: 10000},
		{BufferBytes: 1000, AccessBytes: 2000},
		{BufferBytes: 10000, AccessBytes: 1000},
	})
}

func TestMesaMonotone(t *testing.T) {
	c := testCurve()
	mesa := Mesa(c, 1_000_000, 2)
	if len(mesa) != 3 {
		t.Fatalf("mesa has %d points", len(mesa))
	}
	for i := 1; i < len(mesa); i++ {
		if mesa[i].OI <= mesa[i-1].OI {
			t.Fatalf("mesa not increasing: %v", mesa)
		}
	}
	// OI at the first point: 1e6 MACs / (10000/2 elements) = 200.
	if math.Abs(mesa[0].OI-200) > 1e-9 {
		t.Fatalf("mesa[0].OI = %f, want 200", mesa[0].OI)
	}
}

func TestPeakOIAndOIAt(t *testing.T) {
	c := testCurve()
	if got := PeakOI(c, 1_000_000, 2); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("PeakOI = %f, want 2000", got)
	}
	if got, ok := OIAt(c, 1_000_000, 2, 1500); !ok || math.Abs(got-1000) > 1e-9 {
		t.Fatalf("OIAt(1500) = (%f,%v), want (1000,true)", got, ok)
	}
	if _, ok := OIAt(c, 1, 2, 50); ok {
		t.Fatal("OIAt below min buffer should be infeasible")
	}
	if PeakOI(&pareto.Curve{}, 1, 2) != 0 {
		t.Fatal("PeakOI of empty curve should be 0")
	}
}

func TestGEMMPeakOIFromDerivedCurve(t *testing.T) {
	g := einsum.GEMM("g", 64, 64, 64)
	c := bound.Derive(g, bound.Options{}).Curve
	peak := PeakOI(c, g.MACs(), g.ElementSize)
	want := bound.GEMMPeakOI(64, 64, 64)
	if math.Abs(peak-want) > 1e-9 {
		t.Fatalf("peak OI %f != closed form %f", peak, want)
	}
}

func TestChipSpec(t *testing.T) {
	s := GF100()
	usable := s.UsableAreaUM2()
	if math.Abs(usable-529e6*0.8) > 1 {
		t.Fatalf("usable area = %f", usable)
	}
	// All area to SRAM.
	if b := s.BufferBytesAt(1.0); b != int64(usable/2.59) {
		t.Fatalf("BufferBytesAt(1) = %d", b)
	}
	if m := s.MACsAt(0); m != int64(usable/332.25) {
		t.Fatalf("MACsAt(0) = %d", m)
	}
	if s.MACsAt(1.0) != 0 || s.BufferBytesAt(0) != 0 {
		t.Fatal("extremes should be zero")
	}
}

func TestPerformanceMesaConcaveShape(t *testing.T) {
	g := einsum.GEMM("g", 256, 256, 256)
	c := bound.Derive(g, bound.Options{}).Curve
	mesa := PerformanceMesa(c, g.MACs(), GF100(), Ratios(0.001, 0.999, 200))

	best, ok := OptimalRatio(mesa)
	if !ok {
		t.Fatal("no feasible mesa point")
	}
	// The optimum should be interior: better than both extremes.
	first, last := mesa[0], mesa[len(mesa)-1]
	if first.Feasible && best.Achieved < first.Achieved {
		t.Fatal("optimum worse than smallest-buffer point")
	}
	if last.Feasible && best.Achieved < last.Achieved {
		t.Fatal("optimum worse than largest-buffer point")
	}
	// Compute-limited curve decreases with ratio; memory-limited is
	// non-decreasing (larger buffer never hurts the bound).
	for i := 1; i < len(mesa); i++ {
		if mesa[i].ComputeMACs > mesa[i-1].ComputeMACs+1 {
			t.Fatal("compute-limited throughput should fall with buffer ratio")
		}
		if mesa[i].Feasible && mesa[i-1].Feasible && mesa[i].MemoryMACs < mesa[i-1].MemoryMACs-1 {
			t.Fatal("memory-limited throughput should rise with buffer ratio")
		}
	}
}

func TestRatios(t *testing.T) {
	r := Ratios(0, 1, 4)
	want := []float64{0, 0.25, 0.5, 0.75, 1}
	if len(r) != len(want) {
		t.Fatalf("Ratios = %v", r)
	}
	for i := range want {
		if math.Abs(r[i]-want[i]) > 1e-12 {
			t.Fatalf("Ratios = %v", r)
		}
	}
	if r := Ratios(0.5, 1, 0); len(r) != 1 || r[0] != 0.5 {
		t.Fatalf("Ratios(n=0) = %v", r)
	}
}

func TestOptimalRatioNoFeasible(t *testing.T) {
	if _, ok := OptimalRatio([]PerfPoint{{Feasible: false}}); ok {
		t.Fatal("OptimalRatio should report no feasible point")
	}
}
