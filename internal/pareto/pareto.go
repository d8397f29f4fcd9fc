// Package pareto provides the ski-slope curve at the heart of Orojenesis:
// the Pareto frontier of (buffer size requirement, backing-store accesses)
// over all mappings of a workload. It supports the queries the paper builds
// its analyses on — accesses attainable at a capacity (Gap 0), the maximal
// effectual buffer size (Gap 1) — and the curve algebra needed for chains:
// summation (unfused execution), pointwise minimum (best segmentation),
// access scaling (batched instances) and buffer shifting (untiled fusion).
//
// Every frontier is built online by a Builder, which keeps the staircase
// sorted as points arrive: a dominated point costs one O(log F) binary
// search over a frontier of F points, and there is no buffering or
// compaction pass. FromPoints, Union and curve decoding all reduce through
// it, so each yields the unique staircase of its input points.
package pareto

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/shape"
)

// Point is one Pareto-optimal (buffer, accesses) pair, both in bytes.
type Point struct {
	BufferBytes int64
	AccessBytes int64
}

// Curve is a Pareto frontier: points sorted by ascending buffer size with
// strictly decreasing access counts. The curve is a staircase bound:
// with capacity c, the attainable minimum is the accesses of the largest
// point whose buffer requirement does not exceed c.
type Curve struct {
	pts []Point

	// AlgoMinBytes and TotalOperandBytes annotate the workload the curve
	// was derived for; they normalize the Gap 0 and Gap 1 queries.
	AlgoMinBytes      int64
	TotalOperandBytes int64

	// Degraded marks a curve derived from an incomplete sweep (a degraded
	// shard merge): the frontier is an over-approximation — real optima
	// from the missing share may lie below it. The flag is sticky through
	// the curve algebra: any composition with a degraded input is itself
	// degraded.
	Degraded bool
}

// Points returns the frontier points in ascending buffer order. The
// returned slice must not be modified.
func (c *Curve) Points() []Point { return c.pts }

// Len returns the number of frontier points.
func (c *Curve) Len() int { return len(c.pts) }

// Empty reports whether the curve has no points.
func (c *Curve) Empty() bool { return len(c.pts) == 0 }

// AccessesAt returns the minimal attainable backing-store accesses with a
// buffer capacity of at most buf bytes. ok is false if no mapping fits.
func (c *Curve) AccessesAt(buf int64) (accesses int64, ok bool) {
	// Largest point with BufferBytes <= buf.
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].BufferBytes > buf })
	if i == 0 {
		return 0, false
	}
	return c.pts[i-1].AccessBytes, true
}

// MinAccessBytes returns the global minimum accesses on the curve (the
// bottom of the ski slope).
func (c *Curve) MinAccessBytes() int64 {
	if len(c.pts) == 0 {
		return 0
	}
	return c.pts[len(c.pts)-1].AccessBytes
}

// MinBufferBytes returns the smallest buffer requirement of any mapping.
func (c *Curve) MinBufferBytes() int64 {
	if len(c.pts) == 0 {
		return 0
	}
	return c.pts[0].BufferBytes
}

// MaxEffectualBufferBytes returns the smallest buffer size that attains the
// curve's minimum accesses — the "ridge point" of the OI mesa. Capacity
// beyond this value cannot reduce data movement.
func (c *Curve) MaxEffectualBufferBytes() int64 {
	if len(c.pts) == 0 {
		return 0
	}
	return c.pts[len(c.pts)-1].BufferBytes
}

// BufferFor returns the smallest buffer capacity whose attainable accesses
// are at most target. ok is false if the curve never reaches target.
func (c *Curve) BufferFor(target int64) (buf int64, ok bool) {
	// Points are sorted by buffer asc / accesses desc; find the first
	// point with accesses <= target.
	i := sort.Search(len(c.pts), func(i int) bool { return c.pts[i].AccessBytes <= target })
	if i == len(c.pts) {
		return 0, false
	}
	return c.pts[i].BufferBytes, true
}

// Gap0 returns the ratio of attainable accesses at capacity buf to the
// algorithmic minimum (Fig. 1's Gap 0). ok is false when no mapping fits
// in buf or the curve lacks an algorithmic-minimum annotation.
func (c *Curve) Gap0(buf int64) (float64, bool) {
	if c.AlgoMinBytes <= 0 {
		return 0, false
	}
	acc, ok := c.AccessesAt(buf)
	if !ok {
		return 0, false
	}
	return float64(acc) / float64(c.AlgoMinBytes), true
}

// Gap1 returns the maximal effectual buffer size normalized to the total
// operand size (Fig. 1's Gap 1, plotted in Figs. 3 and 11).
func (c *Curve) Gap1() (float64, bool) {
	if c.TotalOperandBytes <= 0 || len(c.pts) == 0 {
		return 0, false
	}
	return float64(c.MaxEffectualBufferBytes()) / float64(c.TotalOperandBytes), true
}

// String renders a short summary.
func (c *Curve) String() string {
	if len(c.pts) == 0 {
		return "pareto.Curve{empty}"
	}
	return fmt.Sprintf("pareto.Curve{%d pts, buf %s..%s, acc %s..%s}",
		len(c.pts),
		shape.FormatBytes(c.pts[0].BufferBytes),
		shape.FormatBytes(c.pts[len(c.pts)-1].BufferBytes),
		shape.FormatBytes(c.pts[0].AccessBytes),
		shape.FormatBytes(c.pts[len(c.pts)-1].AccessBytes))
}

// Table renders the frontier as aligned text rows (buffer, accesses),
// useful for quick inspection in examples and benchmarks.
func (c *Curve) Table() string {
	var b strings.Builder
	for _, p := range c.pts {
		fmt.Fprintf(&b, "%12d  %14d    %10s  %12s\n",
			p.BufferBytes, p.AccessBytes,
			shape.FormatBytes(p.BufferBytes), shape.FormatBytes(p.AccessBytes))
	}
	return b.String()
}

// Canonical renders the curve as a deterministic one-line encoding —
// annotations, degraded flag, and every frontier point — for use in
// content digests (e.g. a shard manifest whose workload includes input
// curves). Two curves have equal encodings iff they are semantically
// identical.
func (c *Curve) Canonical() string {
	var b strings.Builder
	fmt.Fprintf(&b, "curve{algo=%d tot=%d", c.AlgoMinBytes, c.TotalOperandBytes)
	if c.Degraded {
		b.WriteString(" degraded")
	}
	b.WriteString(" pts=[")
	for i, p := range c.pts {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%d:%d", p.BufferBytes, p.AccessBytes)
	}
	b.WriteString("]}")
	return b.String()
}

// FromPoints builds a curve from arbitrary points, keeping only the Pareto
// frontier.
func FromPoints(pts []Point) *Curve {
	b := NewBuilder()
	for _, p := range pts {
		b.Add(p.BufferBytes, p.AccessBytes)
	}
	return b.Curve()
}

// Builder accumulates (buffer, accesses) observations from a mapspace
// traversal and keeps their Pareto frontier online: its points always form
// the staircase a Curve holds (ascending buffer, strictly descending
// accesses), so memory is bounded by the frontier size, not the number of
// observations, and there is no compaction pass or threshold. An Add
// binary-searches the staircase; a dominated or duplicate point returns in
// O(log F) for a frontier of F points without touching memory, and a new
// optimum replaces the run of points it dominates. The frontier of a set
// of points is unique, so the result does not depend on the order points
// arrive in.
type Builder struct {
	pts []Point
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{}
}

// Add records one mapping's buffer requirement and access count.
func (b *Builder) Add(bufBytes, accessBytes int64) {
	pts := b.pts
	// i is the first point with a larger buffer requirement.
	i, j := 0, len(pts)
	for i < j {
		h := int(uint(i+j) >> 1)
		if pts[h].BufferBytes <= bufBytes {
			i = h + 1
		} else {
			j = h
		}
	}
	// Only the predecessor can dominate: every point before it moves more.
	if i > 0 && pts[i-1].AccessBytes <= accessBytes {
		return
	}
	// The new point dominates an equal-buffer predecessor and the run of
	// larger-buffer points that move at least as much.
	lo, hi := i, i
	if i > 0 && pts[i-1].BufferBytes == bufBytes {
		lo = i - 1
	}
	for hi < len(pts) && pts[hi].AccessBytes >= accessBytes {
		hi++
	}
	if lo == hi { // nothing dominated: open a slot
		pts = append(pts, Point{})
		copy(pts[lo+1:], pts[lo:])
	} else { // keep one slot of the dominated run
		pts = append(pts[:lo+1], pts[hi:]...)
	}
	pts[lo] = Point{BufferBytes: bufBytes, AccessBytes: accessBytes}
	b.pts = pts
}

// AddCurve merges every point of another curve.
func (b *Builder) AddCurve(c *Curve) {
	for _, p := range c.pts {
		b.Add(p.BufferBytes, p.AccessBytes)
	}
}

// Curve returns a copy of the accumulated Pareto frontier.
func (b *Builder) Curve() *Curve {
	return &Curve{pts: append([]Point(nil), b.pts...)}
}

// Sum composes curves for workloads executed back to back sharing one
// buffer (the paper's unfused baseline): at every capacity, total accesses
// are the sum of each curve's attainable accesses. Capacities where any
// component has no feasible mapping are excluded. Annotations are summed.
func Sum(curves ...*Curve) *Curve {
	if len(curves) == 0 {
		return &Curve{}
	}
	bufs := breakpoints(curves)
	var pts []Point
	for _, buf := range bufs {
		total := int64(0)
		feasible := true
		for _, c := range curves {
			acc, ok := c.AccessesAt(buf)
			if !ok {
				feasible = false
				break
			}
			total += acc
		}
		if feasible {
			pts = append(pts, Point{BufferBytes: buf, AccessBytes: total})
		}
	}
	out := FromPoints(pts)
	for _, c := range curves {
		out.AlgoMinBytes += c.AlgoMinBytes
		out.TotalOperandBytes += c.TotalOperandBytes
		out.Degraded = out.Degraded || c.Degraded
	}
	return out
}

// Union merges the points of several curves into a single Pareto frontier
// — the reduction step of a parallel traversal, where each worker built a
// frontier over its share of the mapspace. A point dominated within its
// own share is dominated in the union too, so the result is identical to
// building one frontier over all underlying points, regardless of how they
// were partitioned. nil curves are skipped. Annotations are not merged: the
// partial curves describe shares of one workload, so callers annotate the
// merged curve themselves.
func Union(curves ...*Curve) *Curve {
	b := NewBuilder()
	degraded := false
	for _, c := range curves {
		if c != nil {
			b.AddCurve(c)
			degraded = degraded || c.Degraded
		}
	}
	out := b.Curve()
	out.Degraded = degraded
	return out
}

// MergeMin composes alternatives (e.g. different segmentation strategies):
// at every capacity the best alternative is chosen. Annotations are taken
// from the first curve.
func MergeMin(curves ...*Curve) *Curve {
	if len(curves) == 0 {
		return &Curve{}
	}
	bufs := breakpoints(curves)
	var pts []Point
	for _, buf := range bufs {
		best := int64(-1)
		for _, c := range curves {
			if acc, ok := c.AccessesAt(buf); ok && (best < 0 || acc < best) {
				best = acc
			}
		}
		if best >= 0 {
			pts = append(pts, Point{BufferBytes: buf, AccessBytes: best})
		}
	}
	out := FromPoints(pts)
	out.AlgoMinBytes = curves[0].AlgoMinBytes
	out.TotalOperandBytes = curves[0].TotalOperandBytes
	for _, c := range curves {
		out.Degraded = out.Degraded || c.Degraded
	}
	return out
}

// ScaleAccesses returns a copy of c with every access count multiplied by
// k — the curve for k identical instances executed sequentially through
// the same buffer.
func (c *Curve) ScaleAccesses(k int64) *Curve {
	out := &Curve{
		pts:               make([]Point, len(c.pts)),
		AlgoMinBytes:      c.AlgoMinBytes * k,
		TotalOperandBytes: c.TotalOperandBytes * k,
		Degraded:          c.Degraded,
	}
	for i, p := range c.pts {
		out.pts[i] = Point{BufferBytes: p.BufferBytes, AccessBytes: p.AccessBytes * k}
	}
	return out
}

// ShiftBuffer returns a copy of c with delta bytes added to every buffer
// requirement — e.g. untiled fusion, which additionally pins the whole
// intermediate tensor in the buffer.
func (c *Curve) ShiftBuffer(delta int64) *Curve {
	out := &Curve{
		pts:               make([]Point, len(c.pts)),
		AlgoMinBytes:      c.AlgoMinBytes,
		TotalOperandBytes: c.TotalOperandBytes,
		Degraded:          c.Degraded,
	}
	for i, p := range c.pts {
		out.pts[i] = Point{BufferBytes: p.BufferBytes + delta, AccessBytes: p.AccessBytes}
	}
	return out
}

// AddAccesses returns a copy of c with a constant added to every access
// count (e.g. traffic of unfused layers appended to a fused chain's curve).
func (c *Curve) AddAccesses(delta int64) *Curve {
	out := &Curve{
		pts:               make([]Point, len(c.pts)),
		AlgoMinBytes:      c.AlgoMinBytes,
		TotalOperandBytes: c.TotalOperandBytes,
		Degraded:          c.Degraded,
	}
	for i, p := range c.pts {
		out.pts[i] = Point{BufferBytes: p.BufferBytes, AccessBytes: p.AccessBytes + delta}
	}
	return out
}

func breakpoints(curves []*Curve) []int64 {
	set := map[int64]bool{}
	for _, c := range curves {
		for _, p := range c.pts {
			set[p.BufferBytes] = true
		}
	}
	out := make([]int64, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}
