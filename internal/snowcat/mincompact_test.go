package snowcat

import (
	"fmt"
	"testing"

	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/shape"
)

// TestMinCompactMatchesOrderMinimum pins the per-tiling order DP to the
// per-order evaluators: for every tiling of every workload, MinCompact's
// buffer equals the shared buffer of the tiling's mappings and its access
// count equals the minimum of the matching Evaluate*Compact over every
// order Enum.Visit emits, under all three accounting rules. The grouped
// BMM has 1 < G < H so the grouped innermost override runs, and the conv
// is strided and dilated; together the tilings span 0 through 6 active
// ranks.
func TestMinCompactMatchesOrderMinimum(t *testing.T) {
	workloads := []*einsum.Einsum{
		einsum.GEMM("gemm", 12, 8, 6),
		einsum.BMM("bmm", 4, 6, 4, 8),
		einsum.GroupedBMM("gbmm", 8, 2, 4, 4, 6),
		einsum.Conv2D("conv", einsum.ConvConfig{P: 4, Q: 2, N: 2, C: 4, R: 3, S: 3, T: 2, D: 2}),
	}
	seenActive := map[int]bool{}
	for _, e := range workloads {
		ev := NewEvaluator(e)
		for _, acct := range []Accounting{Perfect, SpillCharged, Imperfect} {
			t.Run(fmt.Sprintf("%s/%d", e.Name, acct), func(t *testing.T) {
				en := mapping.NewEnum(e)
				eval := ev.EvaluateCompact
				switch acct {
				case SpillCharged:
					eval = ev.EvaluateCompactSpillCharged
				case Imperfect:
					en = mapping.NewImperfectEnum(e, 3)
					eval = ev.EvaluateImperfectCompact
				}
				for i := int64(0); i < en.Tilings(); i++ {
					var splits []shape.Split
					en.VisitTilings(i, i+1, func(s []shape.Split) { splits = append(splits, s...) })
					var orders, wantBuf, wantAcc int64
					en.Visit(i, i+1, func(m *mapping.Mapping) {
						buf, acc := eval(m)
						if orders == 0 || acc < wantAcc {
							wantAcc = acc
						}
						if orders > 0 && buf != wantBuf {
							t.Fatalf("tiling %d: buffer varies with the order (%d vs %d)", i, buf, wantBuf)
						}
						wantBuf = buf
						orders++
					})
					if got := mapping.Orders(splits); got != orders {
						t.Fatalf("tiling %d %v: Orders = %d, Visit emitted %d", i, splits, got, orders)
					}
					buf, acc := ev.MinCompact(acct, splits)
					if buf != wantBuf || acc != wantAcc {
						t.Fatalf("tiling %d %v: MinCompact = (%d, %d), order minimum (%d, %d)",
							i, splits, buf, acc, wantBuf, wantAcc)
					}
					active := 0
					for _, s := range splits {
						if s.Outer > 1 {
							active++
						}
					}
					seenActive[active] = true
				}
			})
		}
	}
	for k := 0; k <= 6; k++ {
		if !seenActive[k] {
			t.Errorf("no tiling with %d active ranks was checked", k)
		}
	}
}
