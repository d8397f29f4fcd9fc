package fusion

import (
	"testing"

	"repro/internal/einsum"
)

func TestFromEinsumsErrors(t *testing.T) {
	g1 := einsum.GEMM("a", 64, 16, 32)
	g2 := einsum.GEMM("b", 64, 32, 16)
	if _, err := FromEinsums("ok", g1, g2); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	if _, err := FromEinsums("empty"); err == nil {
		t.Fatal("empty chain accepted")
	}
	// Mismatched M.
	g3 := einsum.GEMM("c", 32, 32, 16)
	if _, err := FromEinsums("bad", g1, g3); err == nil {
		t.Fatal("mismatched M accepted")
	}
	// Non-GEMM ranks.
	bmm := einsum.BMM("bmm", 2, 64, 16, 32)
	if _, err := FromEinsums("bad", bmm); err == nil {
		t.Fatal("BMM accepted as GEMM chain op")
	}
	// Invalid einsum.
	invalid := &einsum.Einsum{Name: "x", ElementSize: 2}
	if _, err := FromEinsums("bad", invalid); err == nil {
		t.Fatal("invalid einsum accepted")
	}
}

func TestPipelinedRespectsNoOutputTiling(t *testing.T) {
	free := twoGEMMChain()
	pinned := twoGEMMChain()
	pinned.Ops[0].NoOutputTiling = true
	pf, err := PipelinedFusion(free)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := PipelinedFusion(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if pp.MinBufferBytes() < pf.MinBufferBytes() {
		t.Fatal("constraint reduced the pipelined buffer")
	}
}

func TestUntiledFusionErrors(t *testing.T) {
	if _, err := UntiledFusion(MustChain("one", 4, GEMMOp("g", 4, 2, 2))); err == nil {
		t.Fatal("single-op untiled accepted")
	}
	bad := &Chain{Name: "bad", M: 0, ElementSize: 2}
	if _, err := UntiledFusion(bad); err == nil {
		t.Fatal("invalid chain accepted")
	}
	if _, err := TiledFusion(bad); err == nil {
		t.Fatal("invalid chain accepted by TiledFusion")
	}
	if _, err := PipelinedFusion(bad); err == nil {
		t.Fatal("invalid chain accepted by PipelinedFusion")
	}
}

func TestMHACustomElementSize(t *testing.T) {
	m2 := MHAConfig{Instances: 1, Seq: 64, Heads: 2, FeatureDim: 8}
	m4 := MHAConfig{Instances: 1, Seq: 64, Heads: 2, FeatureDim: 8, ElementSize: 4}
	if m4.AlgoMinFusedBytes() != 2*m2.AlgoMinFusedBytes() {
		t.Fatal("element size not honored")
	}
	c2 := m2.FlashAttentionCurve()
	c4 := m4.FlashAttentionCurve()
	if c4.MinAccessBytes() != 2*c2.MinAccessBytes() {
		t.Fatal("element size not applied to curves")
	}
}

func TestSegmentationLabelRendering(t *testing.T) {
	s := Segmentation{Cuts: []int{2}}
	if got := s.render(4); got != "[0:2)[2:4)" {
		t.Fatalf("render = %q", got)
	}
	if got := (Segmentation{}).render(3); got != "[0:3)" {
		t.Fatalf("render = %q", got)
	}
}

func TestWeightTotalAndInstances(t *testing.T) {
	c := MustChain("mha", 128,
		AttentionQKOp("qk", 2, 64, 4, 8),
		AttentionQKVOp("qkv", 2, 64, 4, 8),
	)
	if c.Instances(0) != 2 {
		t.Fatalf("instances = %d", c.Instances(0))
	}
	if c.WeightTotalElements(0) != 2*4*64*8 {
		t.Fatalf("weight total = %d", c.WeightTotalElements(0))
	}
}
