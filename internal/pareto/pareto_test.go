package pareto

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func buildCurve(pts ...Point) *Curve { return FromPoints(pts) }

func TestFrontierPruning(t *testing.T) {
	c := buildCurve(
		Point{100, 1000},
		Point{100, 900},  // dominates previous at same buffer
		Point{200, 950},  // dominated (more buffer, more accesses)
		Point{200, 800},  // kept
		Point{300, 800},  // dominated (same accesses, more buffer)
		Point{400, 500},  // kept
		Point{50, 2000},  // kept (smallest buffer)
		Point{500, 5000}, // dominated
	)
	want := []Point{{50, 2000}, {100, 900}, {200, 800}, {400, 500}}
	got := c.Points()
	if len(got) != len(want) {
		t.Fatalf("frontier = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("frontier = %v, want %v", got, want)
		}
	}
}

func TestAccessesAt(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{200, 500}, Point{400, 100})
	cases := []struct {
		buf  int64
		want int64
		ok   bool
	}{
		{50, 0, false},
		{100, 1000, true},
		{150, 1000, true},
		{200, 500, true},
		{399, 500, true},
		{400, 100, true},
		{1 << 40, 100, true},
	}
	for _, cs := range cases {
		got, ok := c.AccessesAt(cs.buf)
		if ok != cs.ok || got != cs.want {
			t.Fatalf("AccessesAt(%d) = (%d,%v), want (%d,%v)", cs.buf, got, ok, cs.want, cs.ok)
		}
	}
}

func TestBufferFor(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{200, 500}, Point{400, 100})
	if b, ok := c.BufferFor(500); !ok || b != 200 {
		t.Fatalf("BufferFor(500) = (%d,%v), want (200,true)", b, ok)
	}
	if b, ok := c.BufferFor(499); !ok || b != 400 {
		t.Fatalf("BufferFor(499) = (%d,%v), want (400,true)", b, ok)
	}
	if _, ok := c.BufferFor(99); ok {
		t.Fatal("BufferFor(99) should be infeasible")
	}
	if b, ok := c.BufferFor(1 << 40); !ok || b != 100 {
		t.Fatalf("BufferFor(huge) = (%d,%v), want (100,true)", b, ok)
	}
}

func TestExtremes(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{400, 100})
	if c.MinAccessBytes() != 100 {
		t.Fatalf("MinAccessBytes = %d", c.MinAccessBytes())
	}
	if c.MaxEffectualBufferBytes() != 400 {
		t.Fatalf("MaxEffectualBufferBytes = %d", c.MaxEffectualBufferBytes())
	}
	if c.MinBufferBytes() != 100 {
		t.Fatalf("MinBufferBytes = %d", c.MinBufferBytes())
	}
	empty := &Curve{}
	if !empty.Empty() || empty.MinAccessBytes() != 0 || empty.MaxEffectualBufferBytes() != 0 {
		t.Fatal("empty-curve extremes should be zero")
	}
}

func TestGaps(t *testing.T) {
	c := buildCurve(Point{100, 1000}, Point{400, 100})
	c.AlgoMinBytes = 100
	c.TotalOperandBytes = 800
	if g, ok := c.Gap0(100); !ok || g != 10 {
		t.Fatalf("Gap0(100) = (%f,%v), want (10,true)", g, ok)
	}
	if g, ok := c.Gap0(400); !ok || g != 1 {
		t.Fatalf("Gap0(400) = (%f,%v)", g, ok)
	}
	if _, ok := c.Gap0(1); ok {
		t.Fatal("Gap0 below min buffer should be infeasible")
	}
	if g, ok := c.Gap1(); !ok || g != 0.5 {
		t.Fatalf("Gap1 = (%f,%v), want (0.5,true)", g, ok)
	}
	unannotated := buildCurve(Point{1, 1})
	if _, ok := unannotated.Gap0(10); ok {
		t.Fatal("Gap0 without annotation should be unavailable")
	}
	if _, ok := unannotated.Gap1(); ok {
		t.Fatal("Gap1 without annotation should be unavailable")
	}
}

func TestSum(t *testing.T) {
	a := buildCurve(Point{100, 1000}, Point{200, 400})
	b := buildCurve(Point{150, 600}, Point{300, 200})
	s := Sum(a, b)
	// Feasible from 150 (both defined): at 150: 1000+600; 200: 400+600;
	// 300: 400+200.
	cases := []struct{ buf, want int64 }{
		{150, 1600}, {200, 1000}, {300, 600},
	}
	for _, cs := range cases {
		got, ok := s.AccessesAt(cs.buf)
		if !ok || got != cs.want {
			t.Fatalf("Sum.AccessesAt(%d) = (%d,%v), want %d", cs.buf, got, ok, cs.want)
		}
	}
	if _, ok := s.AccessesAt(120); ok {
		t.Fatal("Sum should be infeasible where a component is infeasible")
	}
}

func TestMergeMin(t *testing.T) {
	a := buildCurve(Point{100, 1000}, Point{300, 900})
	b := buildCurve(Point{200, 500})
	m := MergeMin(a, b)
	if got, ok := m.AccessesAt(100); !ok || got != 1000 {
		t.Fatalf("MergeMin at 100 = (%d,%v)", got, ok)
	}
	if got, ok := m.AccessesAt(250); !ok || got != 500 {
		t.Fatalf("MergeMin at 250 = (%d,%v)", got, ok)
	}
	if got, ok := m.AccessesAt(1 << 30); !ok || got != 500 {
		t.Fatalf("MergeMin at large = (%d,%v)", got, ok)
	}
}

func TestBuilderCompaction(t *testing.T) {
	b := NewBuilder()
	rng := rand.New(rand.NewSource(42))
	type raw struct{ buf, acc int64 }
	var all []raw
	for i := 0; i < 100000; i++ {
		p := raw{rng.Int63n(1 << 20), rng.Int63n(1 << 30)}
		all = append(all, p)
		b.Add(p.buf, p.acc)
	}
	c := b.Curve()
	// Frontier invariants.
	pts := c.Points()
	for i := 1; i < len(pts); i++ {
		if pts[i].BufferBytes <= pts[i-1].BufferBytes ||
			pts[i].AccessBytes >= pts[i-1].AccessBytes {
			t.Fatalf("frontier violated at %d: %v %v", i, pts[i-1], pts[i])
		}
	}
	// Every raw point is dominated by (or on) the curve.
	for _, p := range all {
		acc, ok := c.AccessesAt(p.buf)
		if !ok || acc > p.acc {
			t.Fatalf("raw point (%d,%d) beats the frontier (%d,%v)", p.buf, p.acc, acc, ok)
		}
	}
}

func TestBuilderKeepsHugeAllOptimalFrontier(t *testing.T) {
	// Every point is Pareto-optimal, so the staircase only grows and every
	// point must survive to the final curve. Ascending buffer order appends
	// each point at the end; descending order inserts each one at the front,
	// moving the whole staircase — the worst case for the online Builder,
	// which must still finish well under a second (without the race
	// detector).
	const n = (1 << 14) + 1000
	for _, order := range []string{"ascending", "descending"} {
		start := time.Now()
		b := NewBuilder()
		for k := int64(0); k < n; k++ {
			i := k
			if order == "descending" {
				i = n - 1 - k
			}
			b.Add(i+1, n-i)
		}
		c := b.Curve()
		if elapsed := time.Since(start); elapsed > time.Second && !raceEnabled {
			t.Errorf("%s: %d all-optimal adds took %v", order, n, elapsed)
		}
		if c.Len() != n {
			t.Fatalf("%s: frontier has %d points, want all %d (all were Pareto-optimal)", order, c.Len(), n)
		}
		pts := c.Points()
		for i := int64(0); i < n; i++ {
			if pts[i] != (Point{i + 1, n - i}) {
				t.Fatalf("%s: point %d = %v, want {%d %d}", order, i, pts[i], i+1, n-i)
			}
		}
	}
}

func TestUnionMatchesSerialUnderConcurrency(t *testing.T) {
	// N goroutines each build a frontier over a shard of one point set;
	// Union of the partial curves must equal the frontier built serially
	// over all points — the invariant parallel traversal rests on.
	rng := rand.New(rand.NewSource(7))
	const total, shards = 40000, 8
	all := make([]Point, total)
	for i := range all {
		all[i] = Point{rng.Int63n(1<<16) + 1, rng.Int63n(1<<24) + 1}
	}
	curves := make([]*Curve, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			b := NewBuilder()
			for i := s; i < total; i += shards {
				b.Add(all[i].BufferBytes, all[i].AccessBytes)
			}
			curves[s] = b.Curve()
		}(s)
	}
	wg.Wait()
	got := Union(curves...)
	want := FromPoints(all)
	gp, wp := got.Points(), want.Points()
	if len(gp) != len(wp) {
		t.Fatalf("union has %d points, serial reference %d", len(gp), len(wp))
	}
	for i := range wp {
		if gp[i] != wp[i] {
			t.Fatalf("point %d: union %v, serial %v", i, gp[i], wp[i])
		}
	}
}

func TestUnionSkipsNilAndEmpty(t *testing.T) {
	a := buildCurve(Point{100, 1000}, Point{200, 500})
	got := Union(nil, a, &Curve{}, nil)
	if got.Len() != a.Len() {
		t.Fatalf("union = %v", got.Points())
	}
	if Union().Len() != 0 {
		t.Fatal("empty union should be empty")
	}
}

func TestFrontierProperty(t *testing.T) {
	f := func(seeds []uint32) bool {
		if len(seeds) == 0 {
			return true
		}
		b := NewBuilder()
		var raws []Point
		for _, s := range seeds {
			p := Point{int64(s % 1024), int64((s / 1024) % 4096)}
			if p.BufferBytes == 0 {
				p.BufferBytes = 1
			}
			if p.AccessBytes == 0 {
				p.AccessBytes = 1
			}
			raws = append(raws, p)
			b.Add(p.BufferBytes, p.AccessBytes)
		}
		c := b.Curve()
		pts := c.Points()
		for i := 1; i < len(pts); i++ {
			if pts[i].BufferBytes <= pts[i-1].BufferBytes ||
				pts[i].AccessBytes >= pts[i-1].AccessBytes {
				return false
			}
		}
		for _, p := range raws {
			acc, ok := c.AccessesAt(p.BufferBytes)
			if !ok || acc > p.AccessBytes {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	c := buildCurve(Point{1 << 20, 1 << 30}, Point{1 << 21, 1 << 29})
	if c.String() == "" {
		t.Fatal("String should be non-empty")
	}
	if (&Curve{}).String() != "pareto.Curve{empty}" {
		t.Fatal("empty curve String")
	}
}

// refFrontier is the sort-based reduction the Builder replaced, kept as the
// oracle for the online staircase: sort by buffer then accesses, and keep
// each point that moves strictly less than every point before it.
func refFrontier(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	sorted := make([]Point, len(pts))
	copy(sorted, pts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].BufferBytes != sorted[j].BufferBytes {
			return sorted[i].BufferBytes < sorted[j].BufferBytes
		}
		return sorted[i].AccessBytes < sorted[j].AccessBytes
	})
	out := sorted[:0]
	for _, p := range sorted {
		if n := len(out); n > 0 {
			if p.AccessBytes >= out[n-1].AccessBytes {
				continue
			}
			if p.BufferBytes == out[n-1].BufferBytes {
				out[n-1] = p
				continue
			}
		}
		out = append(out, p)
	}
	return append([]Point(nil), out...)
}

// oracleInputs returns named point sets covering the orders and ties the
// online Builder must reduce exactly like refFrontier.
func oracleInputs() map[string][]Point {
	rng := rand.New(rand.NewSource(13))
	random := func(n int, bufs, accs int64) []Point {
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{rng.Int63n(bufs) + 1, rng.Int63n(accs) + 1}
		}
		return pts
	}
	sorted := func(pts []Point, desc bool) []Point {
		out := slices.Clone(pts)
		slices.SortFunc(out, func(a, b Point) int {
			return cmp.Or(cmp.Compare(a.BufferBytes, b.BufferBytes), cmp.Compare(a.AccessBytes, b.AccessBytes))
		})
		if desc {
			slices.Reverse(out)
		}
		return out
	}
	base := random(5000, 1<<12, 1<<20)
	dups := random(300, 1<<6, 1<<8)
	dups = append(dups, dups...)
	rng.Shuffle(len(dups), func(i, j int) { dups[i], dups[j] = dups[j], dups[i] })
	var bufTies, accTies, staircase []Point
	for i := int64(1); i <= 200; i++ {
		for k := int64(0); k < 5; k++ {
			bufTies = append(bufTies, Point{i * 10, 5000 - i*10 + rng.Int63n(40)})
			accTies = append(accTies, Point{i*10 + rng.Int63n(40), 5000 - i*10})
		}
		staircase = append(staircase, Point{i, 1000 - i})
	}
	rng.Shuffle(len(bufTies), func(i, j int) { bufTies[i], bufTies[j] = bufTies[j], bufTies[i] })
	rng.Shuffle(len(accTies), func(i, j int) { accTies[i], accTies[j] = accTies[j], accTies[i] })
	return map[string][]Point{
		"empty":                nil,
		"single":               {{7, 9}},
		"random":               base,
		"ascending":            sorted(base, false),
		"descending":           sorted(base, true),
		"duplicates":           dups,
		"equal-buffer ties":    bufTies,
		"equal-access ties":    accTies,
		"staircase ascending":  staircase,
		"staircase descending": sorted(staircase, true),
	}
}

func samePoints(t *testing.T, what string, got, want []Point) {
	t.Helper()
	if (got == nil) != (want == nil) || !slices.Equal(got, want) {
		t.Fatalf("%s: %d points %v, reference %d points %v", what, len(got), trimPts(got), len(want), trimPts(want))
	}
}

func trimPts(pts []Point) string {
	if len(pts) > 8 {
		return fmt.Sprintf("%v...", pts[:8])
	}
	return fmt.Sprint(pts)
}

func TestBuilderMatchesSortReference(t *testing.T) {
	for name, pts := range oracleInputs() {
		t.Run(name, func(t *testing.T) {
			want := refFrontier(pts)
			b := NewBuilder()
			for _, p := range pts {
				b.Add(p.BufferBytes, p.AccessBytes)
			}
			samePoints(t, "Builder", b.Curve().Points(), want)
			samePoints(t, "FromPoints", FromPoints(pts).Points(), want)

			// Union over an uneven split into per-share frontiers.
			var parts []*Curve
			for lo := 0; lo < len(pts); lo += 1 + lo/2 {
				parts = append(parts, FromPoints(pts[lo:min(len(pts), lo+1+lo/2)]))
			}
			samePoints(t, "Union", Union(parts...).Points(), want)

			raw, err := json.Marshal(curveJSON{Points: pts})
			if err != nil {
				t.Fatal(err)
			}
			var c Curve
			if err := json.Unmarshal(raw, &c); err != nil {
				t.Fatal(err)
			}
			samePoints(t, "UnmarshalJSON", c.Points(), want)
		})
	}
}

var sinkCurveLen int

func TestBuilderAddDominatedDoesNotAllocate(t *testing.T) {
	b := NewBuilder()
	for i := int64(1); i <= 1000; i++ {
		b.Add(i*4, 1<<20-i*16)
	}
	// Each run adds enough dominated and duplicate points that any
	// buffering of them would have to grow or compact its storage.
	allocs := testing.AllocsPerRun(10, func() {
		for i := int64(1); i <= 1<<14; i++ {
			b.Add(i%4000+4, 1<<20) // dominated by {4, 1<<20-16}
			b.Add(400, 1<<20-1600) // equal to a staircase point
		}
	})
	if allocs != 0 {
		t.Fatalf("dominated Adds allocate %v times per run", allocs)
	}
	sinkCurveLen = len(b.pts)
}
