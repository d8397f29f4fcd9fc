package models

import (
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
)

func TestConvCatalogsValidate(t *testing.T) {
	for _, set := range [][]ConvLayer{ResNet50(), VGG16()} {
		for _, l := range set {
			e := l.Einsum()
			if err := e.Validate(); err != nil {
				t.Fatalf("%s: %v", l.Name, err)
			}
			if e.MACs() <= 0 {
				t.Fatalf("%s: no work", l.Name)
			}
		}
	}
	if len(ResNet50()) != 10 || len(VGG16()) != 5 {
		t.Fatal("catalog sizes changed unexpectedly")
	}
}

func TestResNetStemShape(t *testing.T) {
	stem := ResNet50()[0].Einsum()
	// 7x7 stride-2 stem over 3 channels producing 64 maps at 112x112.
	if stem.MACs() != 112*112*64*3*7*7 {
		t.Fatalf("stem MACs = %d", stem.MACs())
	}
	// Input footprint: (2*111 + 6 + 1)^2 * 3 = 229^2*3.
	in := stem.Inputs()[0]
	if sz := stem.TensorSize(in); sz != 229*229*3 {
		t.Fatalf("stem input size = %d, want %d", sz, 229*229*3)
	}
}

func TestTransformerBlocksValidate(t *testing.T) {
	for _, cfg := range TransformerBlocks() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if cfg.BlockMACs() <= 0 {
			t.Fatalf("%s: no work", cfg.Name)
		}
	}
}

func TestBiggerGPTMoreWork(t *testing.T) {
	small := GPT3_6_7B().BlockMACs()
	mid := GPT3_13B(2048, 16).BlockMACs()
	big := GPT3_175B(2048, 16).BlockMACs()
	if !(small < mid && mid < big) {
		t.Fatalf("GPT family MACs not ordered: %d %d %d", small, mid, big)
	}
}

func TestLlamaGQA(t *testing.T) {
	e := Llama2_70B_GQA(1024)
	if err := e.Validate(); err != nil {
		t.Fatal(err)
	}
	// 8 KV groups: the weight tensor holds 8 head groups.
	w := e.Inputs()[1]
	if sz := e.TensorSize(w); sz != 8*128*1024 {
		t.Fatalf("GQA weight size = %d, want %d", sz, 8*128*1024)
	}
}

func TestGQABeatsMHAOnTraffic(t *testing.T) {
	gqa := Llama2_70B_GQA(256)
	// Equivalent MHA: G = H.
	mha := einsum.GroupedBMM("ref", 64, 1, 256, 128, 256) // MQA: G=1 extreme for contrast
	cg := bound.Derive(gqa, bound.Options{Workers: 1}).Curve
	cm := bound.Derive(mha, bound.Options{Workers: 1}).Curve
	// MQA (G=1) has the least traffic, GQA (G=8) sits between it and MHA;
	// here we just assert GQA's algorithmic floor exceeds MQA's.
	if cg.MinAccessBytes() <= cm.MinAccessBytes() {
		t.Fatalf("GQA floor %d should exceed MQA floor %d",
			cg.MinAccessBytes(), cm.MinAccessBytes())
	}
}
