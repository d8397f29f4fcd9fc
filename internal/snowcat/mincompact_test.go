package snowcat

import (
	"fmt"
	"slices"
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
// ranks. The last two pin nest.Reduce's rules: "hoist" has two ranks
// relevant to every tensor (H, G) and a three-rank merge class (K, J, L);
// "pinned" has a grouped rank N whose relevance equals the ungrouped O's,
// so merging the two would change the counts.
func TestMinCompactMatchesOrderMinimum(t *testing.T) {
	named := func(name, src string) *einsum.Einsum {
		e := einsum.MustParse(src)
		e.Name = name
		return e
	}
	workloads := []*einsum.Einsum{
		einsum.GEMM("gemm", 12, 8, 6),
		einsum.BMM("bmm", 4, 6, 4, 8),
		einsum.GroupedBMM("gbmm", 8, 2, 4, 4, 6),
		einsum.Conv2D("conv", einsum.ConvConfig{P: 4, Q: 2, N: 2, C: 4, R: 3, S: 3, T: 2, D: 2}),
		named("hoist", "B[h,g,m,n] = A[h,g,m,k,j,l] * W[h,g,k,j,l,n] {H=2,G=3,M=2,K=2,J=3,L=2,N=2}"),
		named("pinned", "B[m,o,n] = A[m,k] * W[k,n/2,o] {M=2,K=2,N=8,O=4}"),
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
					en.VisitTilings(i, i+1, mapping.Skip{}, 0, func(s []shape.Split, _ bool) { splits = append(splits, s...) })
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

// TestMinCompactReducesOrderProblem guards nest.Reduce against a silent
// fallback to the unreduced DP: the Fig. 12 R3S3 conv with all six ranks
// iterating reaches the DP as its three relevance classes (P·Q, N, C·R·S),
// and the Fig. 13 h8 BMM with H, M, K and N iterating as M, K, N under a
// hoisted H.
func TestMinCompactReducesOrderProblem(t *testing.T) {
	cases := []struct {
		e          *einsum.Einsum
		splits     []shape.Split
		wantBounds []int64
		wantHoist  int64
	}{
		{
			einsum.Conv2D("R3S3", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3}),
			[]shape.Split{{Inner: 8, Outer: 2}, {Inner: 4, Outer: 4}, {Inner: 32, Outer: 2},
				{Inner: 16, Outer: 4}, {Inner: 1, Outer: 3}, {Inner: 1, Outer: 3}},
			[]int64{2 * 4, 2, 4 * 3 * 3}, 1,
		},
		{
			einsum.BMM("h8", 8, 4096, 512, 4096),
			[]shape.Split{{Inner: 4, Outer: 2}, {Inner: 1024, Outer: 4}, {Inner: 256, Outer: 2}, {Inner: 512, Outer: 8}},
			[]int64{4, 2, 8}, 2,
		},
	}
	for _, c := range cases {
		ev := NewEvaluator(c.e)
		ev.MinCompact(Perfect, c.splits)
		if !slices.Equal(ev.bounds, c.wantBounds) || ev.hoist != c.wantHoist {
			t.Errorf("%s: DP loops %v under hoist %d, want %v under %d",
				c.e.Name, ev.bounds, ev.hoist, c.wantBounds, c.wantHoist)
		}
	}
}
