package fusion

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/pareto"
)

// TestTiledFusionRangeCoverParity pins the sharding contract for the FFMT
// template sweep: partial curves over a disjoint cover of the template
// space union to the byte-identical full-sweep curve.
func TestTiledFusionRangeCoverParity(t *testing.T) {
	c := MustChain("ffn", 64,
		GEMMOp("mm_0", 64, 32, 48),
		GEMMOp("mm_1", 64, 48, 16))
	space, err := TiledFusionSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := TiledFusionStats(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}

	cuts := []int64{0, 1, space / 3, space / 2, space}
	var parts []*pareto.Curve
	for i := 0; i+1 < len(cuts); i++ {
		cv, _, err := TiledFusionRange(context.Background(), c, cuts[i], cuts[i+1], 2)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, cv)
	}
	merged := pareto.Union(parts...)
	merged.AlgoMinBytes = parts[0].AlgoMinBytes
	merged.TotalOperandBytes = parts[0].TotalOperandBytes
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("union of range curves differs from full sweep\n got %s\nwant %s", got, want)
	}
}

func TestTiledFusionRangeRejectsOutOfBounds(t *testing.T) {
	c := MustChain("ffn", 16,
		GEMMOp("mm_0", 16, 8, 8),
		GEMMOp("mm_1", 16, 8, 8))
	space, err := TiledFusionSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int64{{-1, 2}, {0, space + 1}, {5, 4}} {
		if _, _, err := TiledFusionRange(context.Background(), c, r[0], r[1], 1); err == nil {
			t.Errorf("TiledFusionRange[%d, %d) accepted", r[0], r[1])
		}
	}
}

func TestChainCanonicalDistinguishesShapes(t *testing.T) {
	a := MustChain("c", 16, GEMMOp("mm_0", 16, 8, 8), GEMMOp("mm_1", 16, 8, 8))
	b := MustChain("c", 16, GEMMOp("mm_0", 16, 8, 4), GEMMOp("mm_1", 16, 4, 8))
	if a.Canonical() == b.Canonical() {
		t.Fatal("different chains share a canonical encoding")
	}
	if a.Canonical() != a.Canonical() {
		t.Fatal("canonical encoding not deterministic")
	}
}

// TestTiledFusionSpaceOverflow: a chain whose template space does not fit
// an int64 — from the 2^E residency subsets alone at 63 and 64 ops, or
// from their product with the M0 and N2(0) options below that — is an
// error, never a wrapped space that derives an empty curve.
func TestTiledFusionSpaceOverflow(t *testing.T) {
	chain := func(n int, m int64) *Chain {
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = GEMMOp(fmt.Sprintf("g%d", i), m, 1, 1)
		}
		return MustChain("long", m, ops...)
	}
	for _, tc := range []struct {
		ops   int
		m     int64
		space int64 // 0: overflow
	}{
		{62, 1, 1 << 62},
		{61, 4, 3 << 61},
		{61, 8, 0}, // 4 * 2^61
		{62, 2, 0}, // 2 * 2^62
		{63, 1, 0},
		{64, 1, 0},
	} {
		c := chain(tc.ops, tc.m)
		space, err := TiledFusionSpace(c)
		if tc.space != 0 {
			if err != nil || space != tc.space {
				t.Errorf("%d ops, M=%d: space %d, %v; want %d", tc.ops, tc.m, space, err, tc.space)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "overflows") {
			t.Errorf("%d ops, M=%d: space %d, %v; want an overflow error", tc.ops, tc.m, space, err)
		}
		if cv, _, err := TiledFusionStats(c, 1); err == nil {
			t.Errorf("%d ops, M=%d: TiledFusionStats returned %d points and no error", tc.ops, tc.m, cv.Len())
		}
	}
}
