package bound_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/llm"
	"repro/internal/mapping"
	"repro/internal/pareto"
	"repro/internal/snowcat"
	"repro/internal/traverse"
)

// referenceDerive is the per-order path the order DP replaced: every
// mapping Enum.Visit emits, scored by the matching Evaluate*Compact and
// added to the frontier. It returns the curve and the mapping count.
func referenceDerive(t *testing.T, e *einsum.Einsum, opts bound.Options) (*pareto.Curve, int64) {
	t.Helper()
	space, err := bound.Space(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	return referenceDeriveRange(t, e, opts, 0, space)
}

// referenceDeriveRange is referenceDerive over the tilings with flat
// index in [lo, hi) only.
func referenceDeriveRange(t *testing.T, e *einsum.Einsum, opts bound.Options, lo, hi int64) (*pareto.Curve, int64) {
	t.Helper()
	en := mapping.NewEnum(e)
	if opts.ImperfectExtra > 0 {
		en = mapping.NewImperfectEnum(e, opts.ImperfectExtra)
	}
	curve, st, err := traverse.FrontierRange(context.Background(), lo, hi, 0, func() traverse.ChunkFunc {
		ev := snowcat.NewEvaluator(e)
		eval := ev.EvaluateCompact
		switch {
		case opts.ImperfectExtra > 0:
			eval = ev.EvaluateImperfectCompact
		case opts.ChargeSpills:
			eval = ev.EvaluateCompactSpillCharged
		}
		return func(lo, hi int64, b *pareto.Builder) int64 {
			var n int64
			en.Visit(lo, hi, func(m *mapping.Mapping) {
				b.Add(eval(m))
				n++
			})
			return n
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	curve.AlgoMinBytes, curve.TotalOperandBytes = e.AlgorithmicMinBytes(), e.TotalOperandBytes()
	return curve, st.Evaluated
}

// figureWorkloads are the single-Einsum derivations behind the paper
// figures: Fig. 3's teaser set, Fig. 12's convolutions, Fig. 13's BMM
// head sweep, and the GPT-3-6.7b block Einsums of Figs. 21-23.
func figureWorkloads() []*einsum.Einsum {
	ws := []*einsum.Einsum{
		einsum.GEMM("gemm-2k", 2048, 2048, 2048),
		einsum.GEMM("gemm-16k_1k_1k", 16384, 1024, 1024),
		einsum.BMM("bmm-h32", 32, 4096, 128, 4096),
	}
	for _, c := range []struct {
		name string
		cfg  einsum.ConvConfig
	}{
		{"R1S1", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 1, S: 1}},
		{"R3S3", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3}},
		{"R5S5", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 5, S: 5}},
		{"R7S7", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 7, S: 7}},
		{"R3S3-T2", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3, T: 2}},
		{"R3S3-D2", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3, D: 2}},
	} {
		ws = append(ws, einsum.Conv2D(c.name, c.cfg))
	}
	for _, h := range []int64{1, 2, 4, 8, 16, 32} {
		ws = append(ws, einsum.BMM(fmt.Sprintf("h%d", h), h, 4096, 4096/h, 4096))
	}
	return append(ws, llm.GPT3_6_7B().AllEinsums()...)
}

// TestDeriveMatchesPerOrderReferenceOnFigureWorkloads pins the per-tiling
// derivation, dominance skips included, to the per-order reference on
// every figure workload: byte-identical curves and an unchanged
// MappingsEvaluated, which counts the mappings each tiling represents.
func TestDeriveMatchesPerOrderReferenceOnFigureWorkloads(t *testing.T) {
	for _, e := range figureWorkloads() {
		t.Run(e.Name, func(t *testing.T) {
			want, wantN := referenceDerive(t, e, bound.Options{})
			got := bound.Derive(e, bound.Options{})
			if g, w := got.Curve.Canonical(), want.Canonical(); g != w {
				t.Fatalf("curve differs from the per-order reference:\n got %s\nwant %s", g, w)
			}
			if got.Stats.MappingsEvaluated != wantN {
				t.Fatalf("MappingsEvaluated = %d, reference visited %d", got.Stats.MappingsEvaluated, wantN)
			}
		})
	}
}

// TestDeriveMatchesPerOrderReferenceAllAccountings covers the imperfect
// and spill-charged evaluators the figure workloads do not use, and the
// dominance skips on random small Einsums (randomEinsums).
func TestDeriveMatchesPerOrderReferenceAllAccountings(t *testing.T) {
	ws := append([]*einsum.Einsum{
		einsum.GEMM("gemm", 96, 80, 72),
		einsum.GroupedBMM("gbmm", 8, 2, 32, 16, 24),
		einsum.Conv2D("conv", einsum.ConvConfig{P: 8, Q: 6, N: 8, C: 4, R: 3, S: 3, T: 2, D: 2}),
	}, randomEinsums(rand.New(rand.NewSource(24)), 56)...)
	for _, e := range ws {
		for _, opts := range []bound.Options{{}, {ChargeSpills: true}, {ImperfectExtra: 6}} {
			t.Run(e.Name+"/"+opts.Canonical(), func(t *testing.T) {
				want, wantN := referenceDerive(t, e, opts)
				got := bound.Derive(e, opts)
				if g, w := got.Curve.Canonical(), want.Canonical(); g != w {
					t.Fatalf("curve differs from the per-order reference:\n got %s\nwant %s", g, w)
				}
				if got.Stats.MappingsEvaluated != wantN {
					t.Fatalf("MappingsEvaluated = %d, reference visited %d", got.Stats.MappingsEvaluated, wantN)
				}
			})
		}
	}
}
