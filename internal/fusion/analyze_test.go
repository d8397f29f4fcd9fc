package fusion

import (
	"testing"

	"repro/internal/bound"
)

func TestAnalyzeChain(t *testing.T) {
	c := MustChain("c", 16,
		GEMMOp("g0", 16, 8, 16),
		GEMMOp("g1", 16, 16, 8),
	)
	a, err := Analyze(c, bound.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Tiled.Empty() || a.Unfused.Empty() || a.Untiled.Empty() || a.Best.Empty() {
		t.Fatal("missing curves")
	}
	if a.AlgoMin != c.FusedAlgoMinBytes() || a.UnfusedAlgoMin != c.UnfusedAlgoMinBytes() {
		t.Fatal("algo-min annotations wrong")
	}
	// Fusion profit at the untiled capacity should be >= 1 (fusion cannot
	// lose once the whole intermediate fits).
	if p, ok := a.FusionProfit(a.Untiled.MinBufferBytes()); !ok || p < 1 {
		t.Fatalf("FusionProfit at large capacity = (%f,%v)", p, ok)
	}
}

func TestAnalyzeChainRejectsSingleOp(t *testing.T) {
	c := MustChain("c", 16, GEMMOp("g0", 16, 8, 16))
	if _, err := Analyze(c, bound.Options{}); err == nil {
		t.Fatal("single-op chain accepted")
	}
}
