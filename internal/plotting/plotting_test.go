package plotting

import (
	"strings"
	"testing"

	"repro/internal/pareto"
)

func curve() *pareto.Curve {
	return pareto.FromPoints([]pareto.Point{
		{BufferBytes: 128, AccessBytes: 1 << 20},
		{BufferBytes: 1 << 12, AccessBytes: 1 << 16},
		{BufferBytes: 1 << 20, AccessBytes: 1 << 12},
	})
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	if err := WriteCSV(&b, Series{Name: "a", Curve: curve()}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if lines[0] != "series,buffer_bytes,access_bytes" {
		t.Fatalf("bad header: %q", lines[0])
	}
	if len(lines) != 4 {
		t.Fatalf("expected 3 data rows, got %d", len(lines)-1)
	}
	if !strings.HasPrefix(lines[1], "a,128,1048576") {
		t.Fatalf("bad first row: %q", lines[1])
	}
}

func TestAscii(t *testing.T) {
	out := Ascii(AsciiOptions{Width: 40, Height: 10},
		Series{Name: "bound", Curve: curve()})
	if !strings.Contains(out, "*") {
		t.Fatalf("no markers in chart:\n%s", out)
	}
	if !strings.Contains(out, "bound") {
		t.Fatal("legend missing")
	}
	if !strings.Contains(out, "buffer") || !strings.Contains(out, "accesses") {
		t.Fatal("axis labels missing")
	}
}

func TestAsciiEmpty(t *testing.T) {
	if out := Ascii(AsciiOptions{}, Series{Name: "e", Curve: &pareto.Curve{}}); out != "(no data)\n" {
		t.Fatalf("empty chart = %q", out)
	}
}

func TestAsciiMultiSeriesMarkers(t *testing.T) {
	out := Ascii(AsciiOptions{Width: 40, Height: 10},
		Series{Name: "a", Curve: curve()},
		Series{Name: "b", Curve: pareto.FromPoints([]pareto.Point{
			{BufferBytes: 128, AccessBytes: 1 << 21},
			{BufferBytes: 1 << 12, AccessBytes: 1 << 17},
			{BufferBytes: 1 << 20, AccessBytes: 1 << 13},
		})},
	)
	if !strings.Contains(out, "o") {
		t.Fatal("second series marker missing")
	}
}

func TestSummaryTable(t *testing.T) {
	out := SummaryTable([]int64{1 << 13}, Series{Name: "bound", Curve: curve()})
	if !strings.Contains(out, "bound") || !strings.Contains(out, "@8.00KB") {
		t.Fatalf("summary table malformed:\n%s", out)
	}
	// Probe below the min buffer renders "-".
	out = SummaryTable([]int64{1}, Series{Name: "bound", Curve: curve()})
	if !strings.Contains(out, " -") {
		t.Fatalf("infeasible probe not dashed:\n%s", out)
	}
}
