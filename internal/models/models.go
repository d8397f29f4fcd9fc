// Package models is a catalog of real network workloads expressed as
// Orojenesis Einsums and transformer-block configurations: CNN layers
// (ResNet-50, VGG-16), encoder and decoder transformers (BERT, GPT-3
// family) and grouped-query-attention models (Llama-2-70B). The paper
// derives its insights on exactly these workload classes; the catalog
// makes them one import away for downstream bound studies.
package models

import (
	"fmt"

	"repro/internal/einsum"
	"repro/internal/llm"
)

// ConvLayer names one convolution layer of a CNN.
type ConvLayer struct {
	Name string
	Cfg  einsum.ConvConfig
}

// Einsum materializes the layer's workload.
func (l ConvLayer) Einsum() *einsum.Einsum {
	return einsum.Conv2D(l.Name, l.Cfg)
}

// ResNet50 returns a representative layer per stage of ResNet-50 at
// 224x224 input: the stem plus one bottleneck triple (1x1 reduce, 3x3,
// 1x1 expand) per stage with the stage's true channel widths and spatial
// extents.
func ResNet50() []ConvLayer {
	return []ConvLayer{
		{"conv1_7x7s2", einsum.ConvConfig{P: 112, Q: 112, N: 64, C: 3, R: 7, S: 7, T: 2}},
		{"conv2_1x1a", einsum.ConvConfig{P: 56, Q: 56, N: 64, C: 64, R: 1, S: 1}},
		{"conv2_3x3", einsum.ConvConfig{P: 56, Q: 56, N: 64, C: 64, R: 3, S: 3}},
		{"conv2_1x1b", einsum.ConvConfig{P: 56, Q: 56, N: 256, C: 64, R: 1, S: 1}},
		{"conv3_3x3", einsum.ConvConfig{P: 28, Q: 28, N: 128, C: 128, R: 3, S: 3}},
		{"conv3_1x1b", einsum.ConvConfig{P: 28, Q: 28, N: 512, C: 128, R: 1, S: 1}},
		{"conv4_3x3", einsum.ConvConfig{P: 14, Q: 14, N: 256, C: 256, R: 3, S: 3}},
		{"conv4_1x1b", einsum.ConvConfig{P: 14, Q: 14, N: 1024, C: 256, R: 1, S: 1}},
		{"conv5_3x3", einsum.ConvConfig{P: 7, Q: 7, N: 512, C: 512, R: 3, S: 3}},
		{"conv5_1x1b", einsum.ConvConfig{P: 7, Q: 7, N: 2048, C: 512, R: 1, S: 1}},
	}
}

// VGG16 returns one representative 3x3 layer per VGG-16 stage.
func VGG16() []ConvLayer {
	return []ConvLayer{
		{"conv1", einsum.ConvConfig{P: 224, Q: 224, N: 64, C: 64, R: 3, S: 3}},
		{"conv2", einsum.ConvConfig{P: 112, Q: 112, N: 128, C: 128, R: 3, S: 3}},
		{"conv3", einsum.ConvConfig{P: 56, Q: 56, N: 256, C: 256, R: 3, S: 3}},
		{"conv4", einsum.ConvConfig{P: 28, Q: 28, N: 512, C: 512, R: 3, S: 3}},
		{"conv5", einsum.ConvConfig{P: 14, Q: 14, N: 512, C: 512, R: 3, S: 3}},
	}
}

// BERTBase returns the BERT-base encoder block (d=768, 12 heads of 64,
// hidden 3072) at the given sequence length and batch.
func BERTBase(seq, batch int64) llm.Config {
	return llm.Config{
		Name: "BERT-base", SeqLen: seq, Batch: batch,
		D: 768, Heads: 12, HeadDim: 64, Hidden: 3072,
	}
}

// BERTLarge returns the BERT-large encoder block (d=1024, 16 heads of 64,
// hidden 4096).
func BERTLarge(seq, batch int64) llm.Config {
	return llm.Config{
		Name: "BERT-large", SeqLen: seq, Batch: batch,
		D: 1024, Heads: 16, HeadDim: 64, Hidden: 4096,
	}
}

// GPT3_6_7B is the paper's target workload re-exported for the catalog.
func GPT3_6_7B() llm.Config { return llm.GPT3_6_7B() }

// GPT3_13B returns the 13-billion-parameter GPT-3 block (d=5120,
// 40 heads of 128, hidden 20480).
func GPT3_13B(seq, batch int64) llm.Config {
	return llm.Config{
		Name: "GPT-3-13b", SeqLen: seq, Batch: batch,
		D: 5120, Heads: 40, HeadDim: 128, Hidden: 20480,
	}
}

// GPT3_175B returns the full GPT-3 block (d=12288, 96 heads of 128,
// hidden 49152).
func GPT3_175B(seq, batch int64) llm.Config {
	return llm.Config{
		Name: "GPT-3-175b", SeqLen: seq, Batch: batch,
		D: 12288, Heads: 96, HeadDim: 128, Hidden: 49152,
	}
}

// Llama2_70B_GQA returns the grouped-query attention score BMM of
// Llama-2-70B: 64 query heads sharing 8 key/value head groups at head
// dimension 128 — the Fig. 14 workload class on a production model.
func Llama2_70B_GQA(seq int64) *einsum.Einsum {
	return einsum.GroupedBMM(
		fmt.Sprintf("llama2-70b-gqa-s%d", seq), 64, 8, seq, 128, seq)
}

// TransformerBlocks lists the catalog's transformer configurations at a
// standard decode-prefill shape (seq 2048, batch 16 for GPT; seq 512,
// batch 32 for BERT).
func TransformerBlocks() []llm.Config {
	return []llm.Config{
		BERTBase(512, 32),
		BERTLarge(512, 32),
		GPT3_6_7B(),
		GPT3_13B(2048, 16),
		GPT3_175B(2048, 16),
	}
}
