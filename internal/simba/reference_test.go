package simba

import (
	"testing"

	"repro/internal/shape"
)

// referenceMapspace is a frozen copy of the nested-loop enumerator that
// predates the index-addressable mapspace. It is kept verbatim as the
// parity oracle: the ported enumerator must visit exactly the same
// mappings in exactly the same order, so capacity pruning and
// MappingsEvaluated counts are provably unchanged by the refactor.
func referenceMapspace(g GEMM, a Arch, visit func(*Mapping)) {
	es := a.ElementSize
	var m Mapping

	spatials := []int64{1}
	for _, s := range shape.Divisors(g.M) {
		if s > 1 && s <= a.PEs {
			spatials = append(spatials, s)
		}
	}

	for _, m0 := range shape.Divisors(g.M) {
		for _, k0 := range shape.Divisors(g.K) {
			if (m0*k0)*es > a.RFBytes {
				break // k0 ascending; larger only grows the footprint
			}
			for _, n0 := range shape.Divisors(g.N) {
				if (m0*k0+k0*n0+m0*n0)*es > a.RFBytes {
					break
				}
				for _, sp := range spatials {
					if g.M%(m0*sp) != 0 {
						continue
					}
					for _, m1 := range shape.Divisors(g.M / (m0 * sp)) {
						tm := m0 * m1 * sp
						if (tm*k0)*es > a.GBBytes {
							break
						}
						for _, k1 := range shape.Divisors(g.K / k0) {
							tk := k0 * k1
							if (tm*tk)*es > a.GBBytes {
								break
							}
							for _, n1 := range shape.Divisors(g.N / n0) {
								tn := n0 * n1
								if (tm*tk+tk*tn+tm*tn)*es > a.GBBytes {
									break
								}
								m = Mapping{
									M0: m0, K0: k0, N0: n0,
									M1: m1, K1: k1, N1: n1,
									Spatial: sp,
									M2:      g.M / (m0 * m1 * sp),
									K2:      g.K / (k0 * k1),
									N2:      g.N / (n0 * n1),
								}
								for _, ord := range dramOrders {
									m.OrderDRAM = ord
									visit(&m)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestMapspaceMatchesReference checks exact visit-sequence parity with the
// pre-refactor nested-loop enumerator: same mappings, same order, same
// count, across shapes that exercise every pruning branch.
func TestMapspaceMatchesReference(t *testing.T) {
	cases := []struct {
		g  GEMM
		gb int64
	}{
		{GEMM{M: 16, K: 16, N: 16}, 1 << 10},
		{GEMM{M: 64, K: 64, N: 64}, 1 << 8}, // tight GB: break pruning dominates
		{GEMM{M: 64, K: 64, N: 64}, 1 << 14},
		{GEMM{M: 32, K: 8, N: 48}, 1 << 12}, // non-uniform ranks
	}
	for _, tc := range cases {
		a := smallArch(tc.gb)
		var want []Mapping
		referenceMapspace(tc.g, a, func(m *Mapping) { want = append(want, *m) })

		var got []Mapping
		Mapspace(tc.g, a, func(m *Mapping) { got = append(got, *m) })

		if len(got) != len(want) {
			t.Fatalf("%+v gb=%d: %d mappings vs reference %d", tc.g, tc.gb, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%+v gb=%d: mapping %d = %+v, reference %+v", tc.g, tc.gb, i, got[i], want[i])
			}
		}
	}
}

// TestMappingsEvaluatedMatchesReference pins the search's evaluation count
// to the reference enumerator at every worker count: pruning is preserved
// exactly under any partitioning of the combo space.
func TestMappingsEvaluatedMatchesReference(t *testing.T) {
	g := GEMM{M: 64, K: 64, N: 64}
	for _, gb := range []int64{1 << 8, 1 << 12} {
		a := smallArch(gb)
		var want int64
		referenceMapspace(g, a, func(*Mapping) { want++ })
		for _, w := range []int{1, 2, 5, 0} {
			res := SearchBest(g, a, Options{Workers: w})
			if res.MappingsEvaluated != want {
				t.Fatalf("gb=%d workers=%d: MappingsEvaluated %d, reference %d",
					gb, w, res.MappingsEvaluated, want)
			}
		}
	}
}

// TestParallelSearchMatchesSerial is the determinism contract: SearchBest
// and DSE return byte-identical results for every worker count.
func TestParallelSearchMatchesSerial(t *testing.T) {
	g := GEMM{M: 64, K: 64, N: 64}
	a := smallArch(1 << 12)

	serial := SearchBest(g, a, Options{Workers: 1})
	if serial.Workers != 1 {
		t.Fatalf("serial search launched %d workers", serial.Workers)
	}
	serialDSE := DSE(g, []int64{256, 1024, 4096}, Options{Workers: 1})

	for _, w := range []int{2, 3, 0} {
		par := SearchBest(g, a, Options{Workers: w})
		if par.BestDRAMBytes != serial.BestDRAMBytes ||
			par.BestGBBytesUsed != serial.BestGBBytesUsed ||
			par.MappingsEvaluated != serial.MappingsEvaluated {
			t.Fatalf("workers=%d: SearchBest (%d,%d,%d) vs serial (%d,%d,%d)",
				w, par.BestDRAMBytes, par.BestGBBytesUsed, par.MappingsEvaluated,
				serial.BestDRAMBytes, serial.BestGBBytesUsed, serial.MappingsEvaluated)
		}

		parDSE := DSE(g, []int64{256, 1024, 4096}, Options{Workers: w})
		for i := range serialDSE {
			if parDSE[i].BestDRAMBytes != serialDSE[i].BestDRAMBytes ||
				parDSE[i].BestGBBytesUsed != serialDSE[i].BestGBBytesUsed ||
				parDSE[i].MappingsEvaluated != serialDSE[i].MappingsEvaluated {
				t.Fatalf("workers=%d DSE[%d] differs from serial", w, i)
			}
		}
	}
}
