package fusion

import (
	"testing"

	"repro/internal/pareto"
)

// gpt3SixEinsumChain is the GPT-3-6.7b chain llm.SixEinsumChain builds
// (Fig. 21), rebuilt here because internal/llm imports this package.
func gpt3SixEinsumChain() *Chain {
	const batch, seq, d, heads, headDim, hidden = 16, 2048, 4096, 32, 128, 16384
	const l = seq * batch
	qk := AttentionQKOp("bmm_QK", batch, seq, heads, headDim)
	qk.NoOutputTiling = true
	fp := GEMMOp("Final_proj", l, d, d)
	fp.NoOutputTiling = true
	return MustChain("GPT-3-6.7b-chain", l,
		GEMMOp("Q_proj", l, d, d),
		qk,
		AttentionQKVOp("bmm_QKV", batch, seq, heads, headDim),
		fp,
		GEMMOp("mm_0", l, d, hidden),
		GEMMOp("mm_1", l, hidden, d),
	)
}

func TestEvalTemplateDoesNotAllocate(t *testing.T) {
	c := gpt3SixEinsumChain()
	sp, err := newTiledSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	b := pareto.NewBuilder()
	m0 := sp.m0Options[len(sp.m0Options)/2]
	n2 := sp.n2Options[len(sp.n2Options)/2]
	f := int(sp.subsets - 1)
	var count int64
	allocs := testing.AllocsPerRun(100, func() {
		count += evalTemplate(c, b, m0, n2, f, sp.lastTileOptions)
	})
	if allocs != 0 {
		t.Fatalf("evalTemplate allocates %v times per call", allocs)
	}
	if count == 0 {
		t.Fatal("template point evaluated no candidates")
	}
}
