package pareto

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Serialization: a derived curve is portable across every architecture
// running the same algorithm (Sec. III-B), so saving it once and loading
// it into later DSE sessions is a first-class workflow.

type curveJSON struct {
	AlgoMinBytes      int64   `json:"algo_min_bytes,omitempty"`
	TotalOperandBytes int64   `json:"total_operand_bytes,omitempty"`
	Degraded          bool    `json:"degraded,omitempty"`
	Points            []Point `json:"points"`
}

// MarshalJSON encodes the curve with its annotations. Complete curves
// serialize exactly as before the degraded flag existed (omitempty), so
// byte-identity checks across shard merges are unaffected.
func (c *Curve) MarshalJSON() ([]byte, error) {
	return json.Marshal(curveJSON{
		AlgoMinBytes:      c.AlgoMinBytes,
		TotalOperandBytes: c.TotalOperandBytes,
		Degraded:          c.Degraded,
		Points:            c.pts,
	})
}

// UnmarshalJSON decodes a curve, re-deriving the Pareto frontier so that
// hand-edited files cannot violate the invariants, and validating the
// annotations against the points: annotations must be non-negative, and a
// positive AlgoMinBytes must not exceed any point's access count — the
// algorithmic minimum is a lower bound on every mapping's traffic, so a
// curve that dips below its own annotation is corrupt, not conservative.
// (TotalOperandBytes has no point-relative invariant: fusion transforms
// like ShiftBuffer legitimately move buffer requirements past it.)
func (c *Curve) UnmarshalJSON(data []byte) error {
	var cj curveJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return err
	}
	for _, p := range cj.Points {
		if p.BufferBytes < 1 || p.AccessBytes < 1 {
			return fmt.Errorf("pareto: non-positive point %+v", p)
		}
	}
	if cj.AlgoMinBytes < 0 {
		return fmt.Errorf("pareto: negative algo_min_bytes %d", cj.AlgoMinBytes)
	}
	if cj.TotalOperandBytes < 0 {
		return fmt.Errorf("pareto: negative total_operand_bytes %d", cj.TotalOperandBytes)
	}
	if cj.AlgoMinBytes > 0 {
		for _, p := range cj.Points {
			if p.AccessBytes < cj.AlgoMinBytes {
				return fmt.Errorf("pareto: point %+v moves less than the annotated algorithmic minimum %d bytes",
					p, cj.AlgoMinBytes)
			}
		}
	}
	c.pts = FromPoints(cj.Points).pts
	c.AlgoMinBytes = cj.AlgoMinBytes
	c.TotalOperandBytes = cj.TotalOperandBytes
	c.Degraded = cj.Degraded
	return nil
}

// WriteTo emits the curve as two-column CSV (buffer_bytes,access_bytes)
// with a header, satisfying io.WriterTo.
func (c *Curve) WriteTo(w io.Writer) (int64, error) {
	var total int64
	n, err := fmt.Fprintln(w, "buffer_bytes,access_bytes")
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, p := range c.pts {
		n, err := fmt.Fprintf(w, "%d,%d\n", p.BufferBytes, p.AccessBytes)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// ReadCSV parses a two-column CSV (with or without the header) into a
// curve, re-deriving the frontier.
func ReadCSV(r io.Reader) (*Curve, error) {
	var pts []Point
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "buffer_bytes") || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("pareto: line %d: want 2 columns, got %q", line, text)
		}
		buf, err1 := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		acc, err2 := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err1 != nil || err2 != nil || buf < 1 || acc < 1 {
			return nil, fmt.Errorf("pareto: line %d: bad point %q", line, text)
		}
		pts = append(pts, Point{BufferBytes: buf, AccessBytes: acc})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return FromPoints(pts), nil
}
