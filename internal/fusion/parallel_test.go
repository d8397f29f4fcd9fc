package fusion

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/bound"
	"repro/internal/pareto"
)

func fourOpChain() *Chain {
	return MustChain("four", 64,
		GEMMOp("g0", 64, 16, 32),
		GEMMOp("g1", 64, 32, 16),
		GEMMOp("g2", 64, 16, 32),
		GEMMOp("g3", 64, 32, 8),
	)
}

func sameCurve(t *testing.T, label string, a, b *pareto.Curve) {
	t.Helper()
	ap, bp := a.Points(), b.Points()
	if len(ap) != len(bp) {
		t.Fatalf("%s: %d vs %d points", label, len(ap), len(bp))
	}
	for i := range ap {
		if ap[i] != bp[i] {
			t.Fatalf("%s: point %d differs: %v vs %v", label, i, ap[i], bp[i])
		}
	}
}

func TestTiledFusionStatsDeterministicAcrossWorkerCounts(t *testing.T) {
	c := fourOpChain()
	serial, st, err := TiledFusionStats(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 1 {
		t.Fatalf("serial sweep used %d workers", st.Workers)
	}
	for _, w := range []int{2, 4, 0} {
		par, pst, err := TiledFusionStats(c, w)
		if err != nil {
			t.Fatal(err)
		}
		if pst.Evaluated != st.Evaluated {
			t.Fatalf("workers=%d evaluated %d templates, serial %d", w, pst.Evaluated, st.Evaluated)
		}
		sameCurve(t, "tiled fusion", serial, par)
	}
}

func TestSegmentationStudyDeterministicAcrossWorkerCounts(t *testing.T) {
	c := fourOpChain()
	perOp := c.PerOpCurves(bound.Options{})
	serial, _, err := SegmentationStudyContext(context.Background(), c, perOp, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, _, err := SegmentationStudyContext(context.Background(), c, perOp, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(par) {
		t.Fatalf("%d vs %d segmentations", len(serial), len(par))
	}
	for i := range serial {
		if serial[i].Label != par[i].Label {
			t.Fatalf("segmentation %d: labels %q vs %q — order must be deterministic",
				i, serial[i].Label, par[i].Label)
		}
		sameCurve(t, "segmentation "+serial[i].Label, serial[i].Curve, par[i].Curve)
	}

	sameCurve(t, "best segmentation", bestSegmentation(t, c, perOp, 1), bestSegmentation(t, c, perOp, 4))
}

func BenchmarkSegmentationStudy(b *testing.B) {
	c := MustChain("five", 256,
		GEMMOp("g0", 256, 64, 128),
		GEMMOp("g1", 256, 128, 64),
		GEMMOp("g2", 256, 64, 128),
		GEMMOp("g3", 256, 128, 64),
		GEMMOp("g4", 256, 64, 32),
	)
	perOp := c.PerOpCurves(bound.Options{})
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		name := "workers=1"
		if w != 1 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := SegmentationStudyContext(context.Background(), c, perOp, w); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTiledFusion(b *testing.B) {
	c := gpt3SixEinsumChain()
	for i := 0; i < b.N; i++ {
		if _, _, err := TiledFusionStats(c, 1); err != nil {
			b.Fatal(err)
		}
	}
}
