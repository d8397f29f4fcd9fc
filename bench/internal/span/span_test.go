package span

import (
	"sync"
	"testing"
	"time"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := Span{ID: 1, Start: 0, End: 100}
	kids := []Span{
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 50},  // overlaps 2
		{ID: 4, Parent: 1, Start: 45, End: 48},  // inside 3
		{ID: 5, Parent: 1, Start: 90, End: 130}, // runs past the parent
		{ID: 6, Parent: 1, Start: -20, End: 5},  // starts before it
	}
	// Covered: [0,5) + [10,50) + [90,100) = 5 + 40 + 10 = 55.
	if got := SelfTime(parent, kids); got != 45 {
		t.Errorf("SelfTime = %d, want 45", got)
	}
	if got := SelfTime(parent, nil); got != 100 {
		t.Errorf("SelfTime without children = %d, want 100", got)
	}
}

func TestTracerRecordsFromManyGoroutines(t *testing.T) {
	tr := New()
	root := tr.ID()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				now := time.Now()
				tr.Add(0, root, "child", "", now, now.Add(time.Microsecond))
			}
		}()
	}
	wg.Wait()
	start := tr.t0
	tr.Add(root, 0, "root", "", start, time.Now())
	spans := tr.Spans()
	if len(spans) != 801 {
		t.Fatalf("recorded %d spans, want 801", len(spans))
	}
	if kids := Children(spans)[root]; len(kids) != 800 {
		t.Errorf("root has %d children, want 800", len(kids))
	}
	seen := map[uint64]bool{}
	for _, s := range spans {
		if seen[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		seen[s.ID] = true
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	if id := tr.Add(0, 0, "x", "", time.Now(), time.Now()); id != 0 || tr.ID() != 0 || tr.Spans() != nil {
		t.Error("nil tracer recorded a span")
	}
}
