package orojenesis

import "testing"

func TestAnalyzeEinsum(t *testing.T) {
	g := GEMM("g", 64, 64, 64)
	a, err := Analyze(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Curve.Empty() {
		t.Fatal("empty curve")
	}
	if a.AlgorithmicMinBytes != g.AlgorithmicMinBytes() {
		t.Fatal("algo min mismatch")
	}
	if a.PeakOI <= 0 || a.PeakOI > a.AlgorithmicOI+1e-9 {
		t.Fatalf("peak OI %f outside (0, algorithmic OI %f]", a.PeakOI, a.AlgorithmicOI)
	}
	if a.MaxEffectualBytes != a.Curve.MaxEffectualBufferBytes() {
		t.Fatal("max effectual mismatch")
	}
	if a.Gap1 <= 0 || a.Gap1 > 1 {
		t.Fatalf("Gap1 = %f, want in (0,1]", a.Gap1)
	}
	if len(a.Mesa) != a.Curve.Len() {
		t.Fatal("mesa points != curve points")
	}
	// Gap0 at min buffer should exceed Gap0 at max effectual (=1).
	g0small, ok1 := a.Gap0(a.Curve.MinBufferBytes())
	g0big, ok2 := a.Gap0(a.MaxEffectualBytes)
	if !ok1 || !ok2 || g0small < g0big || g0big != 1 {
		t.Fatalf("Gap0: small %f (%v), big %f (%v)", g0small, ok1, g0big, ok2)
	}
	if oi, ok := a.OIAt(a.MaxEffectualBytes); !ok || oi != a.PeakOI {
		t.Fatalf("OIAt(maxEffectual) = (%f,%v), want peak %f", oi, ok, a.PeakOI)
	}
	// The report rebuilt from the curve alone matches in every field but
	// Stats, which only a traversal fills.
	re, err := AnalyzeCurve(g, a.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.MappingsEvaluated == 0 || re.Stats.MappingsEvaluated != 0 {
		t.Fatalf("Stats: derived %+v, rebuilt %+v", a.Stats, re.Stats)
	}
	re.Stats = a.Stats
	if re.PeakOI != a.PeakOI || re.Gap1 != a.Gap1 || re.MaxEffectualBytes != a.MaxEffectualBytes ||
		len(re.Mesa) != len(a.Mesa) || re.MACs != a.MACs {
		t.Fatalf("AnalyzeCurve report %+v differs from Analyze %+v", re, a)
	}
}

func TestAnalyzeEinsumRejectsInvalid(t *testing.T) {
	bad := &Einsum{Name: "bad", ElementSize: 2}
	if _, err := Analyze(bad, Options{}); err == nil {
		t.Fatal("invalid einsum accepted")
	}
}
