package snowcat

import (
	"testing"

	"repro/internal/einsum"
	"repro/internal/mapping"
)

// TestEvaluatorMatchesEvaluate cross-checks the compiled fast path against
// the reference model over entire mapspaces, including strided convolution
// and grouped-BMM projections.
func TestEvaluatorMatchesEvaluate(t *testing.T) {
	workloads := []*einsum.Einsum{
		einsum.GEMM("gemm", 16, 8, 4),
		einsum.BMM("bmm", 4, 8, 4, 8),
		einsum.GroupedBMM("gbmm", 8, 2, 4, 4, 4),
		einsum.Conv2D("conv", einsum.ConvConfig{P: 4, Q: 4, N: 4, C: 4, R: 3, S: 3, T: 2, D: 2}),
	}
	for _, e := range workloads {
		ev := NewEvaluator(e)
		checked := 0
		mapping.Space(e, func(m *mapping.Mapping) {
			ref := Evaluate(e, m)
			buf, acc := ev.EvaluateCompact(m)
			if buf != ref.BufferBytes || acc != ref.AccessBytes {
				t.Fatalf("%s mapping %s: evaluator (%d,%d) != reference (%d,%d)",
					e.Name, m, buf, acc, ref.BufferBytes, ref.AccessBytes)
			}
			checked++
		})
		if checked == 0 {
			t.Fatalf("%s: empty mapspace", e.Name)
		}
	}
}

func BenchmarkEvaluateReference(b *testing.B) {
	e := einsum.GEMM("gemm", 4096, 4096, 4096)
	var m *mapping.Mapping
	mapping.Space(e, func(mm *mapping.Mapping) {
		if m == nil {
			m = mm.Clone()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Evaluate(e, m)
	}
}

func BenchmarkEvaluatorCompact(b *testing.B) {
	e := einsum.GEMM("gemm", 4096, 4096, 4096)
	ev := NewEvaluator(e)
	var m *mapping.Mapping
	mapping.Space(e, func(mm *mapping.Mapping) {
		if m == nil {
			m = mm.Clone()
		}
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.EvaluateCompact(m)
	}
}

// TestDominators pins the options the two dominance rules reduce: every
// inner tile above 1 of a batch rank to inner tile 1 under the
// exact-integer accountings, and under Imperfect every candidate of an
// ungrouped rank to the smallest candidate sharing its outer bound.
func TestDominators(t *testing.T) {
	kept := func(row []int) (n int) {
		for j, d := range row {
			if d == j {
				n++
			}
		}
		return n
	}
	g := einsum.GEMM("g", 4096, 512, 4096)
	en := mapping.NewImperfectEnum(g, 48)
	rows := Skips(g, Imperfect, en).Reduce
	for i, want := range []struct{ all, kept int }{{44, 39}, {44, 32}, {44, 39}} {
		opts := en.Options(i)
		if n, k := len(opts), kept(rows[i]); n != want.all || k != want.kept {
			t.Errorf("imperfect %s: %d of %d candidates kept, want %d of %d", g.Ranks[i].Name, k, n, want.kept, want.all)
		}
		for j, d := range rows[i] {
			if d > j || rows[i][d] != d || opts[d].Outer != opts[j].Outer || (d > 0 && opts[d-1].Outer == opts[d].Outer) {
				t.Errorf("imperfect %s: candidate %v reduces to %v, want the smallest with its outer", g.Ranks[i].Name, opts[j], opts[d])
			}
		}
	}
	if rows := Skips(g, Perfect, mapping.NewEnum(g)).Reduce; rows[0] != nil || rows[1] != nil || rows[2] != nil {
		t.Errorf("perfect GEMM: options reduced %v, want none", rows)
	}

	b := einsum.BMM("b", 32, 64, 16, 64)
	for _, acct := range []Accounting{Perfect, SpillCharged} {
		en := mapping.NewEnum(b)
		rows := Skips(b, acct, en).Reduce
		if en.Options(0)[0].Inner != 1 || len(rows[0]) != 6 || kept(rows[0]) != 1 || rows[0][5] != 0 {
			t.Errorf("BMM H under %d: reductions %v, want every option to inner tile 1 (option 0)", acct, rows[0])
		}
		for i := 1; i < 4; i++ {
			if rows[i] != nil {
				t.Errorf("BMM %s under %d: options reduced, want none", b.Ranks[i].Name, acct)
			}
		}
	}
	// No batch rule under Imperfect, and no imperfect rule on a grouped rank.
	gb := einsum.GroupedBMM("gb", 12, 3, 16, 8, 8)
	if rows := Skips(gb, Imperfect, mapping.NewImperfectEnum(gb, 12)).Reduce; rows[0] != nil {
		t.Errorf("grouped H under Imperfect: options reduced %v, want none", rows[0])
	}
	en = mapping.NewImperfectEnum(b, 12)
	rows = Skips(b, Imperfect, en).Reduce
	for j, s := range en.Options(0) {
		dominated := j > 0 && en.Options(0)[j-1].Outer == s.Outer
		if got := rows[0] != nil && rows[0][j] != j; got != dominated {
			t.Errorf("BMM H under Imperfect: option %v reduced %v, want %v", s, got, dominated)
		}
	}
}

// TestSkipsPerms pins which automorphisms each accounting admits: every
// one under the exact-integer rules, and under Imperfect only those whose
// effective footprints keep their float evaluation order — a GEMM's
// two-dim tensors, but neither the conv's four-dim weight nor the BMM's
// three-dim operands. A grouped BMM has none to admit.
func TestSkipsPerms(t *testing.T) {
	cases := []struct {
		e    *einsum.Einsum
		want [3]int // admitted permutations under Perfect, SpillCharged, Imperfect
	}{
		{einsum.GEMM("g", 64, 32, 64), [3]int{1, 1, 1}},
		{einsum.GEMM("cube", 64, 64, 64), [3]int{1, 1, 1}},
		{einsum.BMM("b", 4, 64, 16, 64), [3]int{1, 1, 0}},
		{einsum.Conv2D("c", einsum.ConvConfig{P: 16, Q: 16, N: 8, C: 8, R: 3, S: 3}), [3]int{1, 1, 0}},
		{einsum.GroupedBMM("gb", 8, 2, 64, 16, 64), [3]int{0, 0, 0}},
	}
	for _, cs := range cases {
		for acct, want := range cs.want {
			en := mapping.NewEnum(cs.e)
			if Accounting(acct) == Imperfect {
				en = mapping.NewImperfectEnum(cs.e, 4)
			}
			if got := len(Skips(cs.e, Accounting(acct), en).Perms); got != want {
				t.Errorf("%s under %d: %d permutations admitted, want %d", cs.e, acct, got, want)
			}
		}
	}
}
