package multilevel

import (
	"context"
	"testing"

	"repro/internal/einsum"
)

// BenchmarkDerive measures the three-level traversal. The serial variant
// tracks the per-combination footprint hoisting (footprints are computed
// once per tile choice, not once per loop-order pair); the parallel
// variant tracks the traversal engine's scaling.
func BenchmarkDerive(b *testing.B) {
	g := einsum.GEMM("g", 32, 32, 32)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Derive(g, 512, Options{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeriveGEMM512 is the multilevel spec of the derive-mixed
// benchmark workload: GEMM 512³ under a 64 KiB L1, the whole space of
// 166,375 three-split combinations, on one and on two workers.
func BenchmarkDeriveGEMM512(b *testing.B) {
	g := einsum.GEMM("gemm512", 512, 512, 512)
	for _, bc := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 2},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Derive(g, 64<<10, Options{Workers: bc.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDeriveRangeBlock measures one 1,024-index DeriveRange call in
// the middle of GEMM 5040³'s 531M-combination space: the cost of one
// shard checkpoint block, including the per-call setup.
func BenchmarkDeriveRangeBlock(b *testing.B) {
	g := einsum.GEMM("gemm5040", 5040, 5040, 5040)
	space, err := Space(g)
	if err != nil {
		b.Fatal(err)
	}
	lo := space / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DeriveRange(context.Background(), g, 64<<10, lo, lo+1024, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
