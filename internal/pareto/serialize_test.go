package pareto

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	c := FromPoints([]Point{
		{BufferBytes: 100, AccessBytes: 1000},
		{BufferBytes: 400, AccessBytes: 100},
	})
	c.AlgoMinBytes = 50
	c.TotalOperandBytes = 800

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	var back Curve
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.AlgoMinBytes != 50 || back.TotalOperandBytes != 800 {
		t.Fatalf("annotations lost: %+v", back)
	}
	if back.Len() != c.Len() {
		t.Fatalf("point count changed: %d vs %d", back.Len(), c.Len())
	}
	for i, p := range back.Points() {
		if p != c.Points()[i] {
			t.Fatalf("point %d differs", i)
		}
	}
}

func TestUnmarshalRederivesFrontier(t *testing.T) {
	// A hand-edited file with dominated points must come back clean.
	raw := `{"points":[
		{"BufferBytes":100,"AccessBytes":1000},
		{"BufferBytes":200,"AccessBytes":2000},
		{"BufferBytes":400,"AccessBytes":100}]}`
	var c Curve
	if err := json.Unmarshal([]byte(raw), &c); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("dominated point survived: %v", c.Points())
	}
}

func TestUnmarshalRejectsBadPoints(t *testing.T) {
	raw := `{"points":[{"BufferBytes":0,"AccessBytes":10}]}`
	var c Curve
	if err := json.Unmarshal([]byte(raw), &c); err == nil {
		t.Fatal("zero buffer accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := FromPoints([]Point{
		{BufferBytes: 128, AccessBytes: 4096},
		{BufferBytes: 512, AccessBytes: 1024},
	})
	var b strings.Builder
	if _, err := c.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip lost points: %v", back.Points())
	}
	if got, _ := back.AccessesAt(128); got != 4096 {
		t.Fatalf("round trip altered data: %d", got)
	}
}

func TestReadCSVToleratesCommentsAndBlank(t *testing.T) {
	in := "# a comment\nbuffer_bytes,access_bytes\n\n10,100\n20,50\n"
	c, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("parsed %d points", c.Len())
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"10\n",
		"a,b\n",
		"10,0\n",
		"-5,10\n",
	}
	for _, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("accepted %q", in)
		}
	}
}

func TestUnmarshalValidatesAnnotations(t *testing.T) {
	cases := []struct {
		name string
		raw  string
	}{
		{"negative algo min", `{"algo_min_bytes":-1,"points":[{"BufferBytes":10,"AccessBytes":100}]}`},
		{"negative operand total", `{"total_operand_bytes":-5,"points":[{"BufferBytes":10,"AccessBytes":100}]}`},
		{"point below algo min", `{"algo_min_bytes":200,"points":[
			{"BufferBytes":10,"AccessBytes":500},
			{"BufferBytes":40,"AccessBytes":100}]}`},
	}
	for _, c := range cases {
		var cv Curve
		if err := json.Unmarshal([]byte(c.raw), &cv); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	// The boundary case is legal: a point exactly at the algorithmic
	// minimum is the bottom of the ski slope.
	var ok Curve
	raw := `{"algo_min_bytes":100,"total_operand_bytes":300,"points":[{"BufferBytes":10,"AccessBytes":100}]}`
	if err := json.Unmarshal([]byte(raw), &ok); err != nil {
		t.Fatalf("curve at its algorithmic minimum rejected: %v", err)
	}
}

// TestAnnotatedRoundTripDerived pins round-tripping of real derived
// curves (which always satisfy the annotation invariants), including
// through curve algebra that transforms annotations.
func TestAnnotatedRoundTripDerived(t *testing.T) {
	base := FromPoints([]Point{
		{BufferBytes: 64, AccessBytes: 4000},
		{BufferBytes: 256, AccessBytes: 1200},
		{BufferBytes: 1024, AccessBytes: 600},
	})
	base.AlgoMinBytes = 600
	base.TotalOperandBytes = 900

	for name, c := range map[string]*Curve{
		"base":    base,
		"sum":     Sum(base, base),
		"scaled":  base.ScaleAccesses(3),
		"shifted": base.ShiftBuffer(512),
		"merged":  MergeMin(base, base.ShiftBuffer(128)),
	} {
		data, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var back Curve
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%s: round trip rejected: %v", name, err)
		}
		if back.AlgoMinBytes != c.AlgoMinBytes || back.TotalOperandBytes != c.TotalOperandBytes {
			t.Fatalf("%s: annotations changed: (%d, %d) -> (%d, %d)", name,
				c.AlgoMinBytes, c.TotalOperandBytes, back.AlgoMinBytes, back.TotalOperandBytes)
		}
		data2, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if string(data) != string(data2) {
			t.Fatalf("%s: round trip not byte-stable\n a %s\n b %s", name, data, data2)
		}
	}
}

// FuzzCurveUnmarshal feeds arbitrary bytes to the curve decoder, which
// reads untrusted input from the curve store and the network. Any input it
// accepts must decode to a strict staircase of positive points equal to
// the sort-based reference frontier of the encoded points, and the decoded
// curve must survive a marshal/unmarshal round trip byte for byte.
func FuzzCurveUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`{"algo_min_bytes":50,"total_operand_bytes":800,"points":[{"BufferBytes":100,"AccessBytes":1000},{"BufferBytes":400,"AccessBytes":100}]}`,
		`{"points":[{"BufferBytes":100,"AccessBytes":1000},{"BufferBytes":200,"AccessBytes":2000},{"BufferBytes":400,"AccessBytes":100}]}`,
		`{"points":[{"BufferBytes":0,"AccessBytes":10}]}`,
		`{"degraded":true,"points":[{"BufferBytes":5,"AccessBytes":300}]}`,
		`{"algo_min_bytes":200,"points":[{"BufferBytes":10,"AccessBytes":500},{"BufferBytes":40,"AccessBytes":100}]}`,
		`{"algo_min_bytes":100,"total_operand_bytes":300,"points":[{"BufferBytes":10,"AccessBytes":100}]}`,
		`{"points":null}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Curve
		if err := json.Unmarshal(data, &c); err != nil {
			return
		}
		pts := c.Points()
		for i, p := range pts {
			if p.BufferBytes < 1 || p.AccessBytes < 1 {
				t.Fatalf("accepted non-positive point %v", p)
			}
			if i > 0 && (p.BufferBytes <= pts[i-1].BufferBytes || p.AccessBytes >= pts[i-1].AccessBytes) {
				t.Fatalf("not a strict staircase at %d: %v then %v", i, pts[i-1], p)
			}
		}
		var raw curveJSON
		if err := json.Unmarshal(data, &raw); err != nil {
			t.Fatalf("curve accepted but raw decode failed: %v", err)
		}
		if want := refFrontier(raw.Points); !slices.Equal(pts, want) {
			t.Fatalf("decoded %v, reference frontier %v", pts, want)
		}
		enc, err := json.Marshal(&c)
		if err != nil {
			t.Fatal(err)
		}
		var back Curve
		if err := json.Unmarshal(enc, &back); err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		enc2, err := json.Marshal(&back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip not byte-stable\n a %s\n b %s", enc, enc2)
		}
	})
}
