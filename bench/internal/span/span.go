// Package span keeps benchmark trace spans in memory and computes each
// span's self time: its duration minus the part of its interval that its
// child spans cover. A nil *Tracer records nothing, so untraced runs pay
// only a nil check per span.
package span

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval at a layer boundary. Start and End are
// nanoseconds since the tracer was created; Parent is 0 for a root span.
// Attr carries one tag the analysis groups by (e.g. "hit" or "miss").
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur returns the span's duration in nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer collects spans from any number of goroutines.
type Tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []Span
}

// New returns an empty tracer whose clock starts now.
func New() *Tracer { return &Tracer{t0: time.Now()} }

// ID reserves a span identifier, so children can name their parent before
// the parent ends. It returns 0 on a nil tracer.
func (t *Tracer) ID() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// Add records the span [start, end) under id (0 reserves a fresh one) and
// returns the id. It does nothing on a nil tracer.
func (t *Tracer) Add(id, parent uint64, name, attr string, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	if id == 0 {
		id = t.ID()
	}
	s := Span{ID: id, Parent: parent, Name: name, Attr: attr,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// Spans returns a copy of the spans recorded so far, in recording order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Children indexes spans by parent id.
func Children(spans []Span) map[uint64][]Span {
	kids := make(map[uint64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// SelfTime returns s's duration minus the union of its children's
// intervals, each clipped to s. Overlapping children (parallel work) are
// counted once.
func SelfTime(s Span, children []Span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		covered += curHi - curLo
	}
	return s.Dur() - covered
}
