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

// TestTiledBlockDoesNotAllocate pins the sweep's inner loop: rebuilding a
// (M0, N2(0)) block and adding its subsets' candidates allocates nothing.
func TestTiledBlockDoesNotAllocate(t *testing.T) {
	c := gpt3SixEinsumChain()
	sp, err := newTiledSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	b := pareto.NewBuilder()
	blk := newTiledBlock(c)
	blocks := sp.items / sp.subsets
	var k, count int64
	allocs := testing.AllocsPerRun(100, func() {
		blk.build(&sp, k%blocks)
		k++
		for f := int64(0); f < sp.subsets; f++ {
			count += blk.add(b, f)
		}
	})
	if allocs != 0 {
		t.Fatalf("tiled block build and add allocate %v times per block", allocs)
	}
	if count == 0 {
		t.Fatal("block evaluated no candidates")
	}
}
