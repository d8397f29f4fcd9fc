// Package plotting renders ski-slope curves and derived series as CSV and
// as ASCII log-log charts, the repo's stand-in for the paper's matplotlib
// figures. Every benchmark and CLI tool uses these writers so that each
// figure's data can be regenerated and inspected as text.
package plotting

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/pareto"
	"repro/internal/shape"
)

// Series is a named curve to plot or export.
type Series struct {
	Name  string
	Curve *pareto.Curve
}

// WriteCSV emits all series as long-form CSV: series,buffer_bytes,access_bytes.
func WriteCSV(w io.Writer, series ...Series) error {
	if _, err := fmt.Fprintln(w, "series,buffer_bytes,access_bytes"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Curve.Points() {
			if _, err := fmt.Fprintf(w, "%s,%d,%d\n", s.Name, p.BufferBytes, p.AccessBytes); err != nil {
				return err
			}
		}
	}
	return nil
}

// AsciiOptions controls chart rendering.
type AsciiOptions struct {
	Width  int
	Height int
}

func (o AsciiOptions) withDefaults() AsciiOptions {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.Height <= 0 {
		o.Height = 20
	}
	return o
}

var markers = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Ascii renders the series as a log-log scatter chart with the staircase
// semantics of a ski-slope diagram: buffer bytes on X, access bytes on Y.
func Ascii(opts AsciiOptions, series ...Series) string {
	opts = opts.withDefaults()
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	any := false
	for _, s := range series {
		for _, p := range s.Curve.Points() {
			x, y := math.Log10(float64(p.BufferBytes)), math.Log10(float64(p.AccessBytes))
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
			any = true
		}
	}
	if !any {
		return "(no data)\n"
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, opts.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", opts.Width))
	}
	for si, s := range series {
		mark := markers[si%len(markers)]
		for _, p := range s.Curve.Points() {
			x := math.Log10(float64(p.BufferBytes))
			y := math.Log10(float64(p.AccessBytes))
			col := int((x - minX) / (maxX - minX) * float64(opts.Width-1))
			row := int((y - minY) / (maxY - minY) * float64(opts.Height-1))
			grid[opts.Height-1-row][col] = mark
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "accesses %s .. %s (log)\n",
		shape.FormatBytes(int64(math.Pow(10, minY))), shape.FormatBytes(int64(math.Pow(10, maxY))))
	for _, row := range grid {
		b.WriteString("|")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("+" + strings.Repeat("-", opts.Width) + "\n")
	fmt.Fprintf(&b, "buffer %s .. %s (log)\n",
		shape.FormatBytes(int64(math.Pow(10, minX))), shape.FormatBytes(int64(math.Pow(10, maxX))))
	for si, s := range series {
		fmt.Fprintf(&b, "  %c %s\n", markers[si%len(markers)], s.Name)
	}
	return b.String()
}

// SummaryTable renders one row per series with the key scalar queries:
// min buffer, accesses at selected capacities, max effectual buffer and
// minimum accesses.
func SummaryTable(probes []int64, series ...Series) string {
	sort.Slice(probes, func(i, j int) bool { return probes[i] < probes[j] })
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %14s", "series", "min-buffer")
	for _, p := range probes {
		fmt.Fprintf(&b, " %14s", "@"+shape.FormatBytes(p))
	}
	fmt.Fprintf(&b, " %14s %14s\n", "max-effectual", "min-accesses")
	for _, s := range series {
		fmt.Fprintf(&b, "%-24s %14s", s.Name, shape.FormatBytes(s.Curve.MinBufferBytes()))
		for _, p := range probes {
			if acc, ok := s.Curve.AccessesAt(p); ok {
				fmt.Fprintf(&b, " %14s", shape.FormatBytes(acc))
			} else {
				fmt.Fprintf(&b, " %14s", "-")
			}
		}
		fmt.Fprintf(&b, " %14s %14s\n",
			shape.FormatBytes(s.Curve.MaxEffectualBufferBytes()),
			shape.FormatBytes(s.Curve.MinAccessBytes()))
	}
	return b.String()
}
