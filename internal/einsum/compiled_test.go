package einsum

import (
	"math/rand"
	"testing"
)

// TestCompiledMatchesMapFootprint checks the rank-indexed footprints
// against the map-based reference on random tiles of identity, strided,
// dilated and grouped projections.
func TestCompiledMatchesMapFootprint(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, e := range []*Einsum{
		GEMM("gemm", 64, 48, 40),
		BMM("bmm", 8, 32, 16, 24),
		GroupedBMM("gbmm", 8, 4, 32, 16, 24),
		Conv2D("conv", ConvConfig{P: 14, Q: 12, N: 16, C: 8, R: 3, S: 5, T: 2, D: 2}),
	} {
		c := e.Compile()
		tile := make([]int64, len(e.Ranks))
		real := make([]float64, len(e.Ranks))
		named := map[string]int64{}
		for trial := 0; trial < 500; trial++ {
			for i, r := range e.Ranks {
				tile[i] = rng.Int63n(r.Shape) + 1
				real[i] = float64(tile[i])
				named[r.Name] = tile[i]
			}
			for ti := range e.Tensors {
				tn := &e.Tensors[ti]
				want := e.Footprint(tn, named)
				if got := c.Footprint(ti, tile); got != want {
					t.Fatalf("%s %s tile %v: Footprint %d, reference %d", e.Name, tn.Name, tile, got, want)
				}
				// On whole tiles the real-valued form differs only in
				// grouped dims (no ceiling), so it never exceeds Footprint.
				if got := c.MeanFootprint(ti, real); got > float64(want) {
					t.Fatalf("%s %s tile %v: MeanFootprint %v above %d", e.Name, tn.Name, tile, got, want)
				}
			}
		}
		for ti := range e.Tensors {
			tn := &e.Tensors[ti]
			if got, want := c.Size(ti), e.TensorSize(tn); got != want {
				t.Fatalf("%s %s: Size %d, TensorSize %d", e.Name, tn.Name, got, want)
			}
			for i, r := range e.Ranks {
				if got := c.Relevance(ti)>>i&1 == 1; got != tn.Relevant(r.Name) {
					t.Fatalf("%s %s rank %s: relevance %v", e.Name, tn.Name, r.Name, got)
				}
			}
		}
	}
}
