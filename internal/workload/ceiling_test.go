package workload

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/llm"
	"repro/internal/pareto"
)

// figureSpecs are the derivations behind the paper figures, one per
// kind: Fig. 3's GEMMs, Fig. 12's convolutions and Fig. 13's BMM head
// sweep as bound specs (perfect, imperfect and spill-charged), the
// GPT-3-6.7b block Einsums of Figs. 21-23, a three-level GEMM, and
// GPT-3-6.7b's six-Einsum chain as tiled fusion and segmentation study.
func figureSpecs() []*Spec {
	g := einsum.GEMM("gemm-1k", 1024, 1024, 1024)
	specs := []*Spec{
		NewBound(einsum.GEMM("gemm-2k", 2048, 2048, 2048), bound.Options{}),
		NewBound(einsum.GEMM("gemm-16k_1k_1k", 16384, 1024, 1024), bound.Options{}),
		NewBound(g, bound.Options{ImperfectExtra: 8}),
		NewBound(g, bound.Options{ChargeSpills: true}),
		NewMultiLevel(einsum.GEMM("gemm512", 512, 512, 512), 64<<10),
	}
	for _, c := range []einsum.ConvConfig{
		{P: 16, Q: 16, N: 64, C: 64, R: 1, S: 1},
		{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3},
		{P: 16, Q: 16, N: 64, C: 64, R: 7, S: 7},
		{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3, T: 2},
		{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3, D: 2},
	} {
		specs = append(specs, NewBound(einsum.Conv2D(fmt.Sprintf("conv-R%d-T%d-D%d", c.R, c.T, c.D), c), bound.Options{}))
	}
	for _, h := range []int64{1, 4, 32} {
		specs = append(specs, NewBound(einsum.BMM(fmt.Sprintf("h%d", h), h, 4096, 4096/h, 4096), bound.Options{}))
	}
	for _, e := range llm.GPT3_6_7B().AllEinsums() {
		specs = append(specs, NewBound(e, bound.Options{}))
	}
	chain := llm.GPT3_6_7B().SixEinsumChain()
	return append(specs, NewFusionTiled(chain), NewSegmentation(chain, nil))
}

// TestFigureWorkloadsUnderCeiling pins the admission ceiling as a true
// bound: every point of every figure workload's derived curve, its
// segment curves and its annotations stay under the kind's ceiling.
func TestFigureWorkloadsUnderCeiling(t *testing.T) {
	for _, s := range figureSpecs() {
		t.Run(string(s.Kind)+"/"+s.Describe(), func(t *testing.T) {
			k, err := s.def()
			if err != nil {
				t.Fatal(err)
			}
			ceil := k.ceiling(s)
			if !ceil.ok {
				t.Fatalf("figure workload's ceiling overflows")
			}
			r, err := s.Run(context.Background(), Exec{})
			if err != nil {
				t.Fatal(err)
			}
			curves := []*pareto.Curve{r.Curve}
			for _, sg := range r.Segments {
				curves = append(curves, sg.Curve)
			}
			for _, c := range curves {
				if c.AlgoMinBytes > ceil.n || c.TotalOperandBytes > ceil.n {
					t.Fatalf("annotations %d, %d over the ceiling %d", c.AlgoMinBytes, c.TotalOperandBytes, ceil.n)
				}
				for _, p := range c.Points() {
					if p.BufferBytes > ceil.n || p.AccessBytes > ceil.n {
						t.Fatalf("point (%d, %d) over the ceiling %d", p.BufferBytes, p.AccessBytes, ceil.n)
					}
				}
			}
		})
	}
}

// TestCeilingRejectsWrappingSpecs pins admission: a Spec whose count
// ceiling overflows int64 fails validation — and so every Spec method —
// while the largest extents under the ceiling pass.
func TestCeilingRejectsWrappingSpecs(t *testing.T) {
	wide := llm.GPT3_6_7B().SixEinsumChain()
	wide.M = 1 << 62
	for _, s := range []*Spec{
		NewBound(einsum.GEMM("wrap", 2305843009213693951, 2, 2), bound.Options{}),
		NewBound(einsum.GEMM("wrap", 4611686018427387847, 1, 1), bound.Options{}),
		NewMultiLevel(einsum.GEMM("wrap", 1<<40, 1<<20, 1<<10), 64<<10),
		NewFusionTiled(wide),
		NewSegmentation(wide, nil),
	} {
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "exceed int64") {
			t.Fatalf("%s spec with a wrapping ceiling validated: %v", s.Kind, err)
		}
		if _, err := s.Space(); err == nil {
			t.Fatalf("%s spec with a wrapping ceiling sized", s.Kind)
		}
	}
	// 12 · (2^59 − 55) fits: the ceiling of GEMM(2^59 − 55, 1, 1) at two
	// bytes per element is 2 · 3 tensors · MACs · 2.
	if err := NewBound(einsum.GEMM("edge", 576460752303423433, 1, 1), bound.Options{}).Validate(); err != nil {
		t.Fatalf("spec under the ceiling rejected: %v", err)
	}
}
