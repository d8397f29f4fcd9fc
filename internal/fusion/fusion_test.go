package fusion

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bound"
	"repro/internal/pareto"
)

func twoGEMMChain() *Chain {
	return MustChain("tiny", 4,
		GEMMOp("g0", 4, 2, 4),
		GEMMOp("g1", 4, 4, 2),
	)
}

func TestChainValidation(t *testing.T) {
	if _, err := NewChain("ok", 4, GEMMOp("g0", 4, 2, 4), GEMMOp("g1", 4, 4, 2)); err != nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	// Width mismatch.
	if _, err := NewChain("bad", 4, GEMMOp("g0", 4, 2, 4), GEMMOp("g1", 4, 8, 2)); err == nil {
		t.Fatal("width mismatch accepted")
	}
	// RowsPerInst not dividing M.
	op := GEMMOp("g0", 4, 2, 4)
	op.RowsPerInst = 3
	if _, err := NewChain("bad", 4, op); err == nil {
		t.Fatal("non-dividing RowsPerInst accepted")
	}
	if _, err := NewChain("bad", 0); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestChainAlgoMins(t *testing.T) {
	c := twoGEMMChain()
	// Fused: M*2 + (2*4 + 4*2) + M*2 = 8 + 16 + 8 = 32 elems -> 64 B.
	if got := c.FusedAlgoMinBytes(); got != 64 {
		t.Fatalf("FusedAlgoMinBytes = %d, want 64", got)
	}
	// Unfused: (4*2+2*4+4*4) + (4*4+4*2+4*2) = 32 + 32 = 64 elems -> 128 B.
	if got := c.UnfusedAlgoMinBytes(); got != 128 {
		t.Fatalf("UnfusedAlgoMinBytes = %d, want 128", got)
	}
	// One intermediate of 4x4 elements -> 32 B.
	if got := c.IntermediateBytes(); got != 32 {
		t.Fatalf("IntermediateBytes = %d, want 32", got)
	}
}

func TestTiledFusionReachesFusedAlgoMin(t *testing.T) {
	c := twoGEMMChain()
	curve, err := TiledFusion(c)
	if err != nil {
		t.Fatal(err)
	}
	if curve.MinAccessBytes() != c.FusedAlgoMinBytes() {
		t.Fatalf("tiled fusion min accesses %d != fused algo min %d",
			curve.MinAccessBytes(), c.FusedAlgoMinBytes())
	}
	// Hand-computed cheapest point: M0=4, N2=1, all weights resident:
	// io peak 24 elems + weights 16 elems = 40 elems = 80 B.
	if acc, ok := curve.AccessesAt(80); !ok || acc != 64 {
		t.Fatalf("AccessesAt(80B) = (%d,%v), want (64,true)", acc, ok)
	}
}

func TestTiledFusionSmallestPoint(t *testing.T) {
	c := twoGEMMChain()
	curve, err := TiledFusion(c)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-derived extreme point: M0=1, N2=4, all streamed:
	// accesses = 4*4*2 + 4*2 + max(4,1)*16 = 104 elems = 208 B;
	// buffer = 3 elems = 6 B.
	acc, ok := curve.AccessesAt(6)
	if !ok {
		t.Fatalf("no point at 6 B; min buffer is %d", curve.MinBufferBytes())
	}
	if acc != 208 {
		t.Fatalf("AccessesAt(6B) = %d, want 208", acc)
	}
}

func TestTiledFusionNeverBelowFusedAlgoMin(t *testing.T) {
	chains := []*Chain{
		twoGEMMChain(),
		MustChain("three", 8,
			GEMMOp("g0", 8, 4, 8),
			GEMMOp("g1", 8, 8, 4),
			GEMMOp("g2", 8, 4, 2),
		),
	}
	for _, c := range chains {
		curve, err := TiledFusion(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range curve.Points() {
			if p.AccessBytes < c.FusedAlgoMinBytes() {
				t.Fatalf("chain %s: point %+v below fused algorithmic minimum %d",
					c.Name, p, c.FusedAlgoMinBytes())
			}
		}
	}
}

func TestTiledFusionRejectsShortChains(t *testing.T) {
	if _, err := TiledFusion(MustChain("one", 4, GEMMOp("g0", 4, 2, 4))); err == nil {
		t.Fatal("single-op TiledFusion accepted")
	}
}

func TestNoOutputTilingConstraint(t *testing.T) {
	free := twoGEMMChain()
	pinned := twoGEMMChain()
	pinned.Ops[0].NoOutputTiling = true
	cf, err := TiledFusion(free)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := TiledFusion(pinned)
	if err != nil {
		t.Fatal(err)
	}
	// The constrained chain cannot have a smaller minimum buffer.
	if cp.MinBufferBytes() < cf.MinBufferBytes() {
		t.Fatalf("NoOutputTiling reduced the minimum buffer: %d < %d",
			cp.MinBufferBytes(), cf.MinBufferBytes())
	}
}

func TestUntiledFusion(t *testing.T) {
	c := twoGEMMChain()
	curve, err := UntiledFusion(c)
	if err != nil {
		t.Fatal(err)
	}
	if curve.MinAccessBytes() != c.FusedAlgoMinBytes() {
		t.Fatalf("untiled accesses %d != fused algo min %d",
			curve.MinAccessBytes(), c.FusedAlgoMinBytes())
	}
	// Buffer must at least hold the intermediate tensor.
	if curve.MinBufferBytes() < c.IntermediateBytes() {
		t.Fatalf("untiled buffer %d below intermediate size %d",
			curve.MinBufferBytes(), c.IntermediateBytes())
	}
	// Tiled fusion reaches the same accesses with less capacity.
	tiled, err := TiledFusion(c)
	if err != nil {
		t.Fatal(err)
	}
	tb, ok := tiled.BufferFor(curve.MinAccessBytes())
	if !ok || tb > curve.MinBufferBytes() {
		t.Fatalf("tiled fusion (%d,%v) should reach algo min within the untiled capacity %d",
			tb, ok, curve.MinBufferBytes())
	}
}

func TestSegmentationAt(t *testing.T) {
	c := MustChain("three", 16,
		GEMMOp("g0", 16, 4, 16),
		GEMMOp("g1", 16, 16, 8),
		GEMMOp("g2", 16, 8, 4),
	)
	space, err := SegmentationSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	if space != 4 {
		t.Fatalf("SegmentationSpace(3 ops) = %d, want 4", space)
	}
	// Check spans are contiguous covers and every mask is distinct.
	seen := map[string]bool{}
	for mask := int64(0); mask < space; mask++ {
		s := SegmentationAt(3, mask)
		spans := s.Segments(3)
		lo := 0
		for _, sp := range spans {
			if sp[0] != lo || sp[1] <= sp[0] {
				t.Fatalf("mask %d: bad spans %v", mask, spans)
			}
			lo = sp[1]
		}
		if lo != 3 {
			t.Fatalf("mask %d: spans %v do not cover the chain", mask, spans)
		}
		label := s.render(3)
		if seen[label] {
			t.Fatalf("mask %d: duplicate segmentation %s", mask, label)
		}
		seen[label] = true
	}
	if s := SegmentationAt(1, 0); len(s.Cuts) != 0 {
		t.Fatalf("SegmentationAt(1, 0) = %+v, want the trivial segmentation", s)
	}
}

// bestSegmentation sweeps the whole mask space of c, as Analyze does.
func bestSegmentation(t testing.TB, c *Chain, perOp []*pareto.Curve, workers int) *pareto.Curve {
	t.Helper()
	sw, err := NewSegmentationSweep(c, perOp)
	if err != nil {
		t.Fatal(err)
	}
	best, _, err := sw.Range(context.Background(), 0, sw.space, workers)
	if err != nil {
		t.Fatal(err)
	}
	return best
}

func TestSegmentationRangeUnionMatchesBest(t *testing.T) {
	c := MustChain("three", 16,
		GEMMOp("g0", 16, 4, 16),
		GEMMOp("g1", 16, 16, 8),
		GEMMOp("g2", 16, 8, 4),
	)
	perOp := c.PerOpCurves(bound.Options{Workers: 1})
	// The reference is the capacity-wise minimum over every
	// segmentation's own curve.
	study, _, err := SegmentationStudyContext(context.Background(), c, perOp, 1)
	if err != nil {
		t.Fatal(err)
	}
	curves := make([]*pareto.Curve, len(study))
	for i, s := range study {
		curves[i] = s.Curve
	}
	best := pareto.MergeMin(curves...)
	best.AlgoMinBytes = c.FusedAlgoMinBytes()
	best.TotalOperandBytes = c.UnfusedAlgoMinBytes()
	wantJSON, err := json.Marshal(best)
	if err != nil {
		t.Fatal(err)
	}
	if gotJSON, _ := json.Marshal(bestSegmentation(t, c, perOp, 1)); !bytes.Equal(gotJSON, wantJSON) {
		t.Fatalf("whole-space range %s != study minimum %s", gotJSON, wantJSON)
	}
	sw, err := NewSegmentationSweep(c, perOp)
	if err != nil {
		t.Fatal(err)
	}
	space, err := SegmentationSpace(c)
	if err != nil {
		t.Fatal(err)
	}
	// Any disjoint cover of the mask space merges back to the best curve.
	for _, cut := range []int64{1, 2, 3} {
		loCurve, _, err := sw.Range(context.Background(), 0, cut, 1)
		if err != nil {
			t.Fatal(err)
		}
		hiCurve, _, err := sw.Range(context.Background(), cut, space, 1)
		if err != nil {
			t.Fatal(err)
		}
		merged := pareto.Union(loCurve, hiCurve)
		merged.AlgoMinBytes = best.AlgoMinBytes
		merged.TotalOperandBytes = best.TotalOperandBytes
		if !reflect.DeepEqual(merged.Points(), best.Points()) {
			t.Fatalf("cut %d: union %v != best %v", cut, merged.Points(), best.Points())
		}
	}
	// Out-of-range slices are rejected.
	if _, _, err := sw.Range(context.Background(), 0, space+1, 1); err == nil {
		t.Fatal("a range beyond the space should fail")
	}
}

func TestSegmentationStudyContextCancel(t *testing.T) {
	c := MustChain("four", 16,
		GEMMOp("g0", 16, 4, 16),
		GEMMOp("g1", 16, 16, 8),
		GEMMOp("g2", 16, 8, 8),
		GEMMOp("g3", 16, 8, 4),
	)
	perOp := c.PerOpCurves(bound.Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := SegmentationStudyContext(ctx, c, perOp, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled study returned %v, want context.Canceled", err)
	}
}

func TestBestSegmentationDominates(t *testing.T) {
	c := MustChain("three", 16,
		GEMMOp("g0", 16, 4, 16),
		GEMMOp("g1", 16, 16, 8),
		GEMMOp("g2", 16, 8, 4),
	)
	perOp := c.PerOpCurves(bound.Options{Workers: 1})
	unfused := UnfusedCurve(perOp)
	fullFusion, err := TiledFusion(c)
	if err != nil {
		t.Fatal(err)
	}
	best := bestSegmentation(t, c, perOp, 1)
	// Best segmentation includes both extremes, so it is pointwise at
	// least as good wherever those are feasible.
	for _, ref := range []*pareto.Curve{unfused, fullFusion} {
		for _, p := range ref.Points() {
			got, ok := best.AccessesAt(p.BufferBytes)
			if !ok || got > p.AccessBytes {
				t.Fatalf("best segmentation (%d,%v) worse than component point %+v", got, ok, p)
			}
		}
	}
}

func TestSegmentationStudyLabels(t *testing.T) {
	c := twoGEMMChain()
	perOp := c.PerOpCurves(bound.Options{Workers: 1})
	study, _, err := SegmentationStudyContext(context.Background(), c, perOp, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(study) != 2 {
		t.Fatalf("two-op chain should have 2 segmentations, got %d", len(study))
	}
	labels := map[string]bool{}
	for _, s := range study {
		labels[s.Label] = true
	}
	if !labels["[0:2)"] || !labels["[0:1)[1:2)"] {
		t.Fatalf("unexpected labels: %v", labels)
	}
}

func TestAttentionOps(t *testing.T) {
	qk := AttentionQKOp("qk", 4, 64, 8, 16)
	if qk.InW != 8*16 || qk.OutW != 8*64 || qk.WInst != 8*64*16 || qk.RowsPerInst != 64 {
		t.Fatalf("AttentionQKOp = %+v", qk)
	}
	qkv := AttentionQKVOp("qkv", 4, 64, 8, 16)
	if qkv.InW != qk.OutW {
		t.Fatal("QKV InW must match QK OutW")
	}
	if qk.Ref.MACs() != 4*8*64*16*64 {
		t.Fatalf("QK reference MACs = %d", qk.Ref.MACs())
	}
}

func TestMHAChainConsistency(t *testing.T) {
	cfg := MHAConfig{Instances: 2, Seq: 64, Heads: 4, FeatureDim: 16}
	c := cfg.Chain()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Fused algo min: per head 4*Seq*F elements.
	want := int64(2) * 4 * (4 * 64 * 16) * 2
	if got := cfg.AlgoMinFusedBytes(); got != want {
		t.Fatalf("AlgoMinFusedBytes = %d, want %d", got, want)
	}
	if c.FusedAlgoMinBytes() != want {
		t.Fatalf("chain fused algo min %d != config %d", c.FusedAlgoMinBytes(), want)
	}
}

func TestFlashBeatsFLATAtSmallBuffers(t *testing.T) {
	cfg := MHAConfig{Instances: 2, Seq: 256, Heads: 4, FeatureDim: 16}
	flat := cfg.FLATCurve()
	flash := cfg.FlashAttentionCurve()
	// Pointwise: wherever FLAT is feasible, Flash is at least as good.
	betterSomewhere := false
	for _, p := range flat.Points() {
		fa, ok := flash.AccessesAt(p.BufferBytes)
		if !ok {
			t.Fatalf("flash infeasible at FLAT's point %+v", p)
		}
		if fa > p.AccessBytes {
			t.Fatalf("flash worse than FLAT at %d: %d > %d", p.BufferBytes, fa, p.AccessBytes)
		}
		if fa < p.AccessBytes {
			betterSomewhere = true
		}
	}
	if !betterSomewhere {
		t.Fatal("flash should strictly beat FLAT at some capacity")
	}
	// Both converge to the fused algorithmic minimum.
	if flat.MinAccessBytes() != cfg.AlgoMinFusedBytes() ||
		flash.MinAccessBytes() != cfg.AlgoMinFusedBytes() {
		t.Fatalf("strategies do not converge: FLAT %d Flash %d want %d",
			flat.MinAccessBytes(), flash.MinAccessBytes(), cfg.AlgoMinFusedBytes())
	}
	// Flash reaches the floor with less capacity.
	fb, _ := flash.BufferFor(cfg.AlgoMinFusedBytes())
	lb, _ := flat.BufferFor(cfg.AlgoMinFusedBytes())
	if fb > lb {
		t.Fatalf("flash max-effectual buffer %d above FLAT's %d", fb, lb)
	}
}

func TestMHAUnfusedAboveFused(t *testing.T) {
	cfg := MHAConfig{Instances: 1, Seq: 64, Heads: 2, FeatureDim: 8}
	unfused := cfg.UnfusedCurve(bound.Options{Workers: 1})
	// Unfused traffic can never beat the fused algorithmic minimum minus
	// nothing — in fact it must pay the intermediate twice, so its floor
	// exceeds the fused floor.
	if unfused.MinAccessBytes() <= cfg.AlgoMinFusedBytes() {
		t.Fatalf("unfused floor %d should exceed fused algo min %d",
			unfused.MinAccessBytes(), cfg.AlgoMinFusedBytes())
	}
}

func TestSubChain(t *testing.T) {
	c := MustChain("three", 8,
		GEMMOp("g0", 8, 4, 8),
		GEMMOp("g1", 8, 8, 4),
		GEMMOp("g2", 8, 4, 2),
	)
	sub := c.Sub(1, 3)
	if sub.Len() != 2 || sub.Ops[0].Name != "g1" {
		t.Fatalf("Sub(1,3) = %+v", sub)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid Sub did not panic")
		}
	}()
	c.Sub(2, 2)
}

// Chain returns the two-op fused chain view of the attention pair.
func (m MHAConfig) Chain() *Chain {
	return MustChain("mha", m.Instances*m.Seq,
		AttentionQKOp("bmm_QK", m.Instances, m.Seq, m.Heads, m.FeatureDim),
		AttentionQKVOp("bmm_QKV", m.Instances, m.Seq, m.Heads, m.FeatureDim),
	)
}
