package fusion

import (
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
)

func convChain() *Chain {
	cfg := einsum.ConvConfig{P: 56, Q: 56, N: 64, C: 64, R: 3, S: 3}
	return MustChain("convpair", 56,
		ConvOp("conv_a", cfg),
		ConvOp("conv_b", cfg),
	)
}

func TestConvOpShape(t *testing.T) {
	cfg := einsum.ConvConfig{P: 56, Q: 56, N: 128, C: 64, R: 3, S: 3, D: 2}
	op := ConvOp("c", cfg)
	if op.InW != 56*64 || op.OutW != 56*128 {
		t.Fatalf("widths = %d/%d", op.InW, op.OutW)
	}
	if op.WInst != 64*128*3*3 || op.RowsPerInst != 56 {
		t.Fatalf("weights = %d rows %d", op.WInst, op.RowsPerInst)
	}
	if op.HaloRows != 4 { // (R-1)*dilation
		t.Fatalf("halo = %d, want 4", op.HaloRows)
	}
	if !op.NoOutputTiling {
		t.Fatal("conv rows must not be tiled")
	}
}

func TestConvOpRejectsStride(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("strided ConvOp did not panic")
		}
	}()
	ConvOp("s2", einsum.ConvConfig{P: 28, Q: 28, N: 64, C: 64, R: 3, S: 3, T: 2})
}

func TestConvChainFusionBound(t *testing.T) {
	c := convChain()
	fused, err := TiledFusion(c)
	if err != nil {
		t.Fatal(err)
	}
	if fused.MinAccessBytes() != c.FusedAlgoMinBytes() {
		t.Fatalf("fused floor %d != fused algo min %d",
			fused.MinAccessBytes(), c.FusedAlgoMinBytes())
	}
	// Fusing eliminates the intermediate feature map: the fused floor is
	// below the unfused algorithmic minimum.
	if fused.MinAccessBytes() >= c.UnfusedAlgoMinBytes() {
		t.Fatal("fusion did not beat the unfused algorithmic minimum")
	}
	// Row-granular fusion: the smallest fused buffer holds a handful of
	// rows plus halo, far below the whole feature map.
	interRow := c.Ops[0].OutW * c.ElementSize
	if fused.MinBufferBytes() >= 56*interRow {
		t.Fatalf("min fused buffer %d not below the full feature map %d",
			fused.MinBufferBytes(), 56*interRow)
	}
}

func TestConvHaloCostsBufferAndTraffic(t *testing.T) {
	withHalo := convChain()
	noHalo := convChain()
	for i := range noHalo.Ops {
		noHalo.Ops[i].HaloRows = 0
	}
	fh, err := TiledFusion(withHalo)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := TiledFusion(noHalo)
	if err != nil {
		t.Fatal(err)
	}
	if fh.MinBufferBytes() <= fn.MinBufferBytes() {
		t.Fatalf("halo should raise the minimum buffer: %d vs %d",
			fh.MinBufferBytes(), fn.MinBufferBytes())
	}
	// At the halo-free chain's smallest buffer, the halo chain (if
	// feasible at all) pays at least as many accesses.
	if acc, ok := fh.AccessesAt(fn.MinBufferBytes()); ok {
		base, _ := fn.AccessesAt(fn.MinBufferBytes())
		if acc < base {
			t.Fatalf("halo chain cheaper than halo-free: %d < %d", acc, base)
		}
	}
}

func TestConvChainSegmentation(t *testing.T) {
	c := convChain()
	perOp := c.PerOpCurves(bound.Options{Workers: 1})
	best := bestSegmentation(t, c, perOp, 1)
	unfused := UnfusedCurve(perOp)
	for _, p := range unfused.Points() {
		got, ok := best.AccessesAt(p.BufferBytes)
		if !ok || got > p.AccessBytes {
			t.Fatalf("segmented conv chain worse than unfused at %d", p.BufferBytes)
		}
	}
}
