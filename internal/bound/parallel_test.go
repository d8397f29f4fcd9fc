package bound

import (
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/einsum"
	"repro/internal/mapping"
)

// TestWorkerUtilizationIndependentOfLeadingRank is the regression test for
// the old first-rank sharding: a GEMM whose leading rank is prime (13 has
// two divisors) used to cap the traversal at two workers no matter how many
// cores were available. Chunked index distribution must reach full
// utilization and produce the same curve for any rank declaration order.
func TestWorkerUtilizationIndependentOfLeadingRank(t *testing.T) {
	g1 := einsum.GEMM("g", 13, 64, 64) // ranks (M, K, N), M prime

	g2 := &einsum.Einsum{
		Name:        g1.Name,
		Ranks:       []einsum.Rank{g1.Ranks[1], g1.Ranks[0], g1.Ranks[2]}, // (K, M, N)
		Tensors:     g1.Tensors,
		ElementSize: g1.ElementSize,
	}
	if err := g2.Validate(); err != nil {
		t.Fatal(err)
	}

	r1 := Derive(g1, Options{})
	r2 := Derive(g2, Options{})

	p1, p2 := r1.Curve.Points(), r2.Curve.Points()
	if len(p1) != len(p2) {
		t.Fatalf("rank orders disagree: %d vs %d points", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("point %d differs across rank orders: %v vs %v", i, p1[i], p2[i])
		}
	}

	tilings := mapping.NewEnum(g1).Tilings()
	want := runtime.GOMAXPROCS(0)
	if int64(want) > tilings {
		want = int(tilings)
	}
	for _, r := range []Result{r1, r2} {
		if r.Stats.Workers != want {
			t.Fatalf("workers = %d, want %d (GOMAXPROCS %d, %d tilings)",
				r.Stats.Workers, want, runtime.GOMAXPROCS(0), tilings)
		}
	}
	if runtime.GOMAXPROCS(0) > 2 && r1.Stats.Workers <= 2 {
		t.Fatalf("prime leading rank capped workers at %d again", r1.Stats.Workers)
	}
}

func TestDeriveImperfectDeterministicAcrossWorkerCounts(t *testing.T) {
	g := einsum.GEMM("g", 24, 20, 12)
	serial := Derive(g, Options{ImperfectExtra: 3, Workers: 1})
	par := Derive(g, Options{ImperfectExtra: 3, Workers: 8})
	if serial.Stats.MappingsEvaluated != par.Stats.MappingsEvaluated {
		t.Fatalf("evaluated %d vs %d mappings", serial.Stats.MappingsEvaluated, par.Stats.MappingsEvaluated)
	}
	sp, pp := serial.Curve.Points(), par.Curve.Points()
	if len(sp) != len(pp) {
		t.Fatalf("imperfect curves disagree: %d vs %d points", len(sp), len(pp))
	}
	for i := range sp {
		if sp[i] != pp[i] {
			t.Fatalf("imperfect point %d differs: %v vs %v", i, sp[i], pp[i])
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		wantErr string
	}{
		{"zero value", Options{}, ""},
		{"explicit workers", Options{Workers: 4}, ""},
		{"imperfect", Options{ImperfectExtra: 8}, ""},
		{"spills alone", Options{ChargeSpills: true}, ""},
		{"negative workers", Options{Workers: -1}, "Workers"},
		{"negative imperfect", Options{ImperfectExtra: -2}, "ImperfectExtra"},
		{"spills plus imperfect", Options{ChargeSpills: true, ImperfectExtra: 1}, "ChargeSpills"},
	}
	for _, cs := range cases {
		err := cs.opts.Validate()
		if cs.wantErr == "" {
			if err != nil {
				t.Fatalf("%s: unexpected error %v", cs.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), cs.wantErr) {
			t.Fatalf("%s: err = %v, want mention of %q", cs.name, err, cs.wantErr)
		}
	}
}

func TestDerivePanicsOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Derive should panic on invalid options")
		}
	}()
	Derive(einsum.GEMM("g", 4, 4, 4), Options{Workers: -1})
}

func TestProbeLevelsDeterministicOrder(t *testing.T) {
	g := einsum.GEMM("g", 32, 32, 32)
	c := Derive(g, Options{}).Curve
	levels := map[string]int64{
		"L2":  8192,
		"L1b": 256,
		"L1a": 256, // same capacity: name breaks the tie
		"L3":  1 << 20,
		"L0":  64,
	}
	var first []LevelBound
	for trial := 0; trial < 20; trial++ {
		got := ProbeLevels(c, levels)
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].CapacityBytes != got[j].CapacityBytes {
				return got[i].CapacityBytes < got[j].CapacityBytes
			}
			return got[i].Level < got[j].Level
		}) {
			t.Fatalf("trial %d: unsorted probe order: %+v", trial, got)
		}
		if first == nil {
			first = got
			continue
		}
		for i := range got {
			if got[i] != first[i] {
				t.Fatalf("trial %d: order changed: %+v vs %+v", trial, got, first)
			}
		}
	}
	if first[0].Level != "L0" || first[1].Level != "L1a" || first[2].Level != "L1b" {
		t.Fatalf("tie-break order wrong: %+v", first)
	}
}

func BenchmarkDeriveImperfect(b *testing.B) {
	g := einsum.GEMM("g", 96, 80, 72)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(benchName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Derive(g, Options{ImperfectExtra: 8, Workers: w})
			}
		})
	}
}

func BenchmarkDerivePerfect(b *testing.B) {
	g := einsum.GEMM("g", 512, 512, 512)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(benchName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Derive(g, Options{Workers: w})
			}
		})
	}
}

// BenchmarkDeriveBMM derives Fig. 13's h32 head split, whose batch rank
// H leaves one tiling in six to score, and its m ↔ n symmetry about half
// of those.
func BenchmarkDeriveBMM(b *testing.B) {
	e := einsum.BMM("h32", 32, 4096, 128, 4096)
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(benchName(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Derive(e, Options{Workers: w})
			}
		})
	}
}

// BenchmarkDeriveConv derives Fig. 12's 3x3 convolution on one worker.
// It has no batch rank, so only its (p, r) ↔ (q, s) rank symmetry skips
// tilings: 2,695 of 4,900 are scored.
func BenchmarkDeriveConv(b *testing.B) {
	e := einsum.Conv2D("R3S3", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3})
	for i := 0; i < b.N; i++ {
		Derive(e, Options{Workers: 1})
	}
}

func benchName(w int) string {
	if w == 1 {
		return "workers=1"
	}
	return "workers=max"
}
