package pareto

import (
	"encoding/json"
	"testing"
)

func degradedCurve(pts ...Point) *Curve {
	c := FromPoints(pts)
	c.Degraded = true
	return c
}

// TestSumCarriesDegraded pins the satellite requirement: summing a partial
// segment curve with full ones must carry — not silently drop — the
// degraded annotation the HTTP envelope reports.
func TestSumCarriesDegraded(t *testing.T) {
	full := FromPoints([]Point{{BufferBytes: 10, AccessBytes: 100}, {BufferBytes: 20, AccessBytes: 50}})
	partial := degradedCurve(Point{BufferBytes: 10, AccessBytes: 200})

	sum := Sum(full, partial)
	if !sum.Degraded {
		t.Fatal("Sum(full, degraded) dropped the degraded flag")
	}
	if Sum(full, full).Degraded {
		t.Fatal("Sum of complete curves must not be degraded")
	}
}

func TestMergeMinCarriesDegraded(t *testing.T) {
	full := FromPoints([]Point{{BufferBytes: 10, AccessBytes: 100}})
	partial := degradedCurve(Point{BufferBytes: 5, AccessBytes: 300})

	// The degraded input must taint the merge even when it is not the
	// first curve (MergeMin takes its other annotations from the first).
	min := MergeMin(full, partial)
	if !min.Degraded {
		t.Fatal("MergeMin(full, degraded) dropped the degraded flag")
	}
	if MergeMin(full, full).Degraded {
		t.Fatal("MergeMin of complete curves must not be degraded")
	}
}

func TestUnionCarriesDegraded(t *testing.T) {
	full := FromPoints([]Point{{BufferBytes: 10, AccessBytes: 100}})
	partial := degradedCurve(Point{BufferBytes: 5, AccessBytes: 300})
	if !Union(full, nil, partial).Degraded {
		t.Fatal("Union with a degraded input dropped the degraded flag")
	}
	if Union(full, full).Degraded {
		t.Fatal("Union of complete curves must not be degraded")
	}
}

func TestDegradedJSONRoundTrip(t *testing.T) {
	partial := degradedCurve(Point{BufferBytes: 5, AccessBytes: 300})
	data, err := json.Marshal(partial)
	if err != nil {
		t.Fatal(err)
	}
	var back Curve
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Degraded {
		t.Fatal("degraded flag lost in JSON round trip")
	}

	// Complete curves serialize without the field, so existing partials
	// and cached responses keep their exact bytes.
	full := FromPoints([]Point{{BufferBytes: 10, AccessBytes: 100}})
	data, err = json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"points":[{"BufferBytes":10,"AccessBytes":100}]}` {
		t.Fatalf("complete curve serialization changed: %s", data)
	}
}

func TestCanonicalDistinguishesDegraded(t *testing.T) {
	full := FromPoints([]Point{{BufferBytes: 5, AccessBytes: 300}})
	partial := degradedCurve(Point{BufferBytes: 5, AccessBytes: 300})
	if full.Canonical() == partial.Canonical() {
		t.Fatal("Canonical() must distinguish degraded from complete curves")
	}
	want := "curve{algo=0 tot=0 pts=[5:300]}"
	if got := full.Canonical(); got != want {
		t.Fatalf("Canonical() = %q, want %q", got, want)
	}
}
