package simba

import (
	"fmt"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
)

func smallArch(gb int64) Arch {
	return Arch{Name: "test", PEs: 4, RFBytes: 256, GBBytes: gb, ElementSize: 2}
}

func TestMappingValidate(t *testing.T) {
	g := GEMM{M: 64, K: 32, N: 16}
	a := smallArch(1 << 14)
	ok := &Mapping{
		M0: 4, K0: 4, N0: 4,
		M1: 4, K1: 4, N1: 2,
		Spatial: 2,
		M2:      2, K2: 2, N2: 2,
		OrderDRAM: [3]string{"M", "K", "N"},
	}
	if err := ok.Validate(g, a); err != nil {
		t.Fatal(err)
	}
	bad := *ok
	bad.M2 = 4
	if err := bad.Validate(g, a); err == nil {
		t.Fatal("non-covering factorization accepted")
	}
	bad = *ok
	bad.Spatial = 8
	if err := bad.Validate(g, a); err == nil {
		t.Fatal("spatial beyond PEs accepted")
	}
	bad = *ok
	bad.M0, bad.K0, bad.N0 = 16, 16, 16
	if err := bad.Validate(g, a); err == nil {
		t.Fatal("RF overflow accepted")
	}
}

func TestEvaluateHandComputed(t *testing.T) {
	// GEMM 8x8x8; RF tiles 2x2x2, GB factors 2x2x2, no spatial,
	// DRAM loops M2=K2=N2=2 ordered M,K,N (outermost..innermost).
	g := GEMM{M: 8, K: 8, N: 8}
	a := Arch{Name: "t", PEs: 1, RFBytes: 1 << 10, GBBytes: 1 << 20, ElementSize: 2}
	m := &Mapping{
		M0: 2, K0: 2, N0: 2, M1: 2, K1: 2, N1: 2, Spatial: 1, M2: 2, K2: 2, N2: 2,
		OrderDRAM: [3]string{"M", "K", "N"},
	}
	if err := m.Validate(g, a); err != nil {
		t.Fatal(err)
	}
	r := Evaluate(g, a, m)
	// GB tiles 4x4x4: footprint 3*16 = 48 elems = 96 B.
	if r.GBBytesUsed != 96 {
		t.Fatalf("GBBytesUsed = %d, want 96", r.GBBytesUsed)
	}
	if r.RFBytesUsed != 24 {
		t.Fatalf("RFBytesUsed = %d, want 24", r.RFBytesUsed)
	}
	// DRAM: A (M,K): innermost relevant K2 -> iters M2*K2 = 4, tile 16 ->
	// 64 elems. W (K,N): innermost relevant N2 -> iters 8, tile 16 -> 128.
	// B (M,N): innermost relevant N2 -> iters 8, tile 16 -> 128.
	if r.DRAMAccessBytes != (64+128+128)*2 {
		t.Fatalf("DRAMAccessBytes = %d, want %d", r.DRAMAccessBytes, (64+128+128)*2)
	}
}

func TestMapspaceAllLegal(t *testing.T) {
	g := GEMM{M: 16, K: 16, N: 16}
	a := smallArch(1 << 10)
	count := 0
	Mapspace(g, a, func(m *Mapping) {
		if err := m.Validate(g, a); err != nil {
			t.Fatalf("mapper emitted illegal mapping: %v", err)
		}
		count++
	})
	if count == 0 {
		t.Fatal("empty mapspace")
	}
}

func TestCapacityPruning(t *testing.T) {
	g := GEMM{M: 64, K: 64, N: 64}
	countSmall, countLarge := 0, 0
	Mapspace(g, smallArch(1<<8), func(*Mapping) { countSmall++ })
	Mapspace(g, smallArch(1<<14), func(*Mapping) { countLarge++ })
	if countSmall >= countLarge {
		t.Fatalf("smaller GB should have a smaller mapspace: %d vs %d", countSmall, countLarge)
	}
}

// TestDRAMAboveOrojenesisBound is the Fig. 24b validation: every Simba
// mapping's DRAM accesses sit on or above the Snowcat-derived bound at
// the mapping's Global-Buffer footprint.
func TestDRAMAboveOrojenesisBound(t *testing.T) {
	g := GEMM{M: 32, K: 32, N: 32}
	e := einsum.GEMM("g", g.M, g.K, g.N)
	curve := bound.Derive(e, bound.Options{}).Curve

	for _, gb := range []int64{256, 1024, 4096} {
		a := smallArch(gb)
		Mapspace(g, a, func(m *Mapping) {
			r := Evaluate(g, a, m)
			bnd, ok := curve.AccessesAt(r.GBBytesUsed)
			if !ok {
				t.Fatalf("no bound at GB footprint %d", r.GBBytesUsed)
			}
			if r.DRAMAccessBytes < bnd {
				t.Fatalf("mapping %+v beats the bound: %d < %d at %d bytes",
					m, r.DRAMAccessBytes, bnd, r.GBBytesUsed)
			}
		})
	}
}

func TestSearchBestImprovesWithGB(t *testing.T) {
	g := GEMM{M: 64, K: 64, N: 64}
	small := SearchBest(g, smallArch(1<<9), Options{})
	large := SearchBest(g, smallArch(1<<14), Options{})
	if small.BestDRAMBytes < large.BestDRAMBytes {
		t.Fatalf("larger GB should not increase best DRAM accesses: %d vs %d",
			small.BestDRAMBytes, large.BestDRAMBytes)
	}
	if small.MappingsEvaluated == 0 || large.MappingsEvaluated == 0 {
		t.Fatal("no mappings evaluated")
	}
}

func TestDSESweep(t *testing.T) {
	g := GEMM{M: 32, K: 32, N: 32}
	results := DSE(g, []int64{256, 512, 1024}, Options{})
	if len(results) != 3 {
		t.Fatalf("DSE returned %d results", len(results))
	}
	for i := 1; i < len(results); i++ {
		if results[i].BestDRAMBytes > results[i-1].BestDRAMBytes {
			t.Fatalf("best DRAM accesses should not grow with GB size: %+v", results)
		}
	}
}

func TestGBTrafficExceedsDRAM(t *testing.T) {
	// Data must flow through the GB to reach the RFs, so GB traffic is at
	// least the DRAM traffic for any mapping with deeper tiling.
	g := GEMM{M: 32, K: 32, N: 32}
	a := smallArch(1 << 12)
	checked := 0
	Mapspace(g, a, func(m *Mapping) {
		r := Evaluate(g, a, m)
		if r.GBAccessBytes < r.DRAMAccessBytes {
			t.Fatalf("GB traffic %d below DRAM traffic %d for %+v",
				r.GBAccessBytes, r.DRAMAccessBytes, m)
		}
		checked++
	})
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

// Validate checks the mapping against the workload and architecture.
func (m *Mapping) Validate(g GEMM, a Arch) error {
	if m.M0*m.M1*m.Spatial*m.M2 != g.M {
		return fmt.Errorf("simba: M factors %dx%dx%dx%d != %d", m.M0, m.M1, m.Spatial, m.M2, g.M)
	}
	if m.K0*m.K1*m.K2 != g.K {
		return fmt.Errorf("simba: K factors %dx%dx%d != %d", m.K0, m.K1, m.K2, g.K)
	}
	if m.N0*m.N1*m.N2 != g.N {
		return fmt.Errorf("simba: N factors %dx%dx%d != %d", m.N0, m.N1, m.N2, g.N)
	}
	if m.Spatial > a.PEs {
		return fmt.Errorf("simba: spatial factor %d exceeds %d PEs", m.Spatial, a.PEs)
	}
	if rf := (m.M0*m.K0 + m.K0*m.N0 + m.M0*m.N0) * a.ElementSize; rf > a.RFBytes {
		return fmt.Errorf("simba: RF requirement %d exceeds %d", rf, a.RFBytes)
	}
	tm, tk, tn := m.gbTiles()
	if gb := (tm*tk + tk*tn + tm*tn) * a.ElementSize; gb > a.GBBytes {
		return fmt.Errorf("simba: GB requirement %d exceeds %d", gb, a.GBBytes)
	}
	seen := map[string]bool{}
	for _, r := range m.OrderDRAM {
		if (r != "M" && r != "K" && r != "N") || seen[r] {
			return fmt.Errorf("simba: bad DRAM loop order %v", m.OrderDRAM)
		}
		seen[r] = true
	}
	return nil
}
