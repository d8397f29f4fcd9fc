package traverse

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/pareto"
)

// synthetic maps an index to a (buffer, accesses) pair with many distinct
// Pareto-optimal points, so merge mistakes show up as curve differences.
func synthetic(i int64) (int64, int64) {
	buf := (i*2654435761)%100000 + 1
	return buf, 200000 - buf
}

func syntheticWorker() ChunkFunc {
	return func(lo, hi int64, b *pareto.Builder) int64 {
		for i := lo; i < hi; i++ {
			buf, acc := synthetic(i)
			b.Add(buf, acc)
		}
		return hi - lo
	}
}

// must* adapt the context-taking engine entry points for the many tests
// that never cancel: Background context, fatal on the impossible error.
func mustFrontier(t *testing.T, items int64, workers int, nw func() ChunkFunc) (*pareto.Curve, Stats) {
	t.Helper()
	c, st, err := FrontierRange(context.Background(), 0, items, workers, nw)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

func mustFrontierRange(t *testing.T, lo, hi int64, workers int, nw func() ChunkFunc) (*pareto.Curve, Stats) {
	t.Helper()
	c, st, err := FrontierRange(context.Background(), lo, hi, workers, nw)
	if err != nil {
		t.Fatal(err)
	}
	return c, st
}

func mustPartition(t *testing.T, items int64, workers int, nw func(w int) RangeFunc) Stats {
	t.Helper()
	st, err := Partition(context.Background(), items, workers, nw)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func mustEach(t *testing.T, items int64, workers int, fn func(i int64)) Stats {
	t.Helper()
	st, err := Each(context.Background(), items, workers, fn)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestFrontierCoversEveryIndexOnce(t *testing.T) {
	const items = 10000
	var visits [items]atomic.Int32
	_, stats := mustFrontier(t, items, 8, func() ChunkFunc {
		return func(lo, hi int64, b *pareto.Builder) int64 {
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
			return hi - lo
		}
	})
	for i := range visits {
		if n := visits[i].Load(); n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
	if stats.Items != items || stats.Evaluated != items {
		t.Fatalf("stats = %+v, want Items=Evaluated=%d", stats, items)
	}
	if stats.Workers < 2 && runtime.GOMAXPROCS(0) > 1 {
		t.Fatalf("expected parallel workers, got %d", stats.Workers)
	}
}

func TestFrontierMatchesSerialForAnyWorkerCount(t *testing.T) {
	const items = 50000
	serial, st := mustFrontier(t, items, 1, syntheticWorker)
	if st.Workers != 1 {
		t.Fatalf("serial run used %d workers", st.Workers)
	}
	for _, w := range []int{2, 3, 4, 7, 16} {
		par, pst := mustFrontier(t, items, w, syntheticWorker)
		if pst.Evaluated != items {
			t.Fatalf("workers=%d evaluated %d, want %d", w, pst.Evaluated, items)
		}
		sp, pp := serial.Points(), par.Points()
		if len(sp) != len(pp) {
			t.Fatalf("workers=%d: %d points vs serial %d", w, len(pp), len(sp))
		}
		for i := range sp {
			if sp[i] != pp[i] {
				t.Fatalf("workers=%d: point %d differs: %v vs %v", w, i, pp[i], sp[i])
			}
		}
	}
}

func TestFrontierZeroItems(t *testing.T) {
	c, stats := mustFrontier(t, 0, 4, syntheticWorker)
	if !c.Empty() {
		t.Fatal("zero items should yield an empty curve")
	}
	if stats.Items != 0 || stats.Evaluated != 0 || stats.Workers != 0 {
		t.Fatalf("stats = %+v, want zeros", stats)
	}
}

func TestFrontierClampsWorkersToItems(t *testing.T) {
	_, stats := mustFrontier(t, 3, 64, syntheticWorker)
	if stats.Workers > 3 {
		t.Fatalf("launched %d workers for 3 items", stats.Workers)
	}
}

func TestPartitionCoversEveryIndexOnce(t *testing.T) {
	const items = 20000
	var visits [items]atomic.Int32
	w := WorkerCount(items, 8)
	stats := mustPartition(t, items, w, func(int) RangeFunc {
		return func(lo, hi int64) int64 {
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
			return hi - lo
		}
	})
	for i := range visits {
		if n := visits[i].Load(); n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
	if stats.Items != items || stats.Evaluated != items || stats.Workers != w {
		t.Fatalf("stats = %+v, want Items=Evaluated=%d Workers=%d", stats, items, w)
	}
}

func TestPartitionWorkerSlotsDense(t *testing.T) {
	// Every slot index in [0, workerCount) is handed out exactly once, so
	// w-indexed accumulator slices merge without gaps or collisions.
	const items = 10000
	w := WorkerCount(items, 6)
	seen := make([]atomic.Int32, w)
	mustPartition(t, items, w, func(wi int) RangeFunc {
		if wi < 0 || wi >= w {
			t.Errorf("slot %d out of range [0,%d)", wi, w)
		} else {
			seen[wi].Add(1)
		}
		return func(lo, hi int64) int64 { return hi - lo }
	})
	for i := range seen {
		if n := seen[i].Load(); n != 1 {
			t.Fatalf("slot %d assigned %d times", i, n)
		}
	}
}

func TestPartitionEvaluatedSumsRangeFuncReturns(t *testing.T) {
	// Evaluated reflects what the range funcs report (e.g. pruned
	// enumerations evaluate fewer points than indices).
	const items = 1000
	stats := mustPartition(t, items, WorkerCount(items, 4), func(int) RangeFunc {
		return func(lo, hi int64) int64 {
			var n int64
			for i := lo; i < hi; i++ {
				if i%2 == 0 {
					n++
				}
			}
			return n
		}
	})
	if stats.Evaluated != items/2 {
		t.Fatalf("Evaluated = %d, want %d", stats.Evaluated, items/2)
	}
	if stats.Items != items {
		t.Fatalf("Items = %d, want %d", stats.Items, items)
	}
}

func TestPartitionSerialAscendingOrder(t *testing.T) {
	var got []int64
	mustPartition(t, 7, 1, func(int) RangeFunc {
		return func(lo, hi int64) int64 {
			for i := lo; i < hi; i++ {
				got = append(got, i)
			}
			return hi - lo
		}
	})
	for i, v := range got {
		if int64(i) != v {
			t.Fatalf("serial Partition out of order: %v", got)
		}
	}
	if len(got) != 7 {
		t.Fatalf("visited %d indices, want 7", len(got))
	}
}

func TestWorkerCount(t *testing.T) {
	if w := WorkerCount(100, 4); w != 4 {
		t.Fatalf("WorkerCount(100,4) = %d", w)
	}
	if w := WorkerCount(3, 64); w != 3 {
		t.Fatalf("WorkerCount(3,64) = %d, want clamp to items", w)
	}
	if w := WorkerCount(100, 0); w != runtime.GOMAXPROCS(0) && w != 100 {
		t.Fatalf("WorkerCount(100,0) = %d", w)
	}
	if w := WorkerCount(0, 4); w != 1 {
		t.Fatalf("WorkerCount(0,4) = %d, want 1", w)
	}
}

func TestEachCoversEveryIndexOnce(t *testing.T) {
	const items = 4096
	var visits [items]atomic.Int32
	stats := mustEach(t, items, 8, func(i int64) { visits[i].Add(1) })
	for i := range visits {
		if n := visits[i].Load(); n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
	if stats.Items != items {
		t.Fatalf("stats.Items = %d", stats.Items)
	}
}

func TestEachSerialOrder(t *testing.T) {
	var got []int64
	mustEach(t, 5, 1, func(i int64) { got = append(got, i) })
	for i, v := range got {
		if int64(i) != v {
			t.Fatalf("serial Each out of order: %v", got)
		}
	}
}

func TestResolveWorkers(t *testing.T) {
	if ResolveWorkers(0) != runtime.GOMAXPROCS(0) {
		t.Fatal("0 should resolve to GOMAXPROCS")
	}
	if ResolveWorkers(-1) != runtime.GOMAXPROCS(0) {
		t.Fatal("negative should resolve to GOMAXPROCS")
	}
	if ResolveWorkers(3) != 3 {
		t.Fatal("positive should pass through")
	}
}

func TestMemoComputesOncePerKey(t *testing.T) {
	var m Memo[int, int]
	var computes atomic.Int32
	const goroutines = 32
	var wg sync.WaitGroup
	results := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			v, err := m.Do(7, func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[g] = v
		}(g)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times for one key", n)
	}
	for _, v := range results {
		if v != 42 {
			t.Fatalf("stale result %d", v)
		}
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestMemoMemoizesErrors(t *testing.T) {
	var m Memo[string, int]
	var computes atomic.Int32
	boom := errors.New("boom")
	fail := func() (int, error) {
		computes.Add(1)
		return 0, boom
	}
	if _, err := m.Do("k", fail); !errors.Is(err, boom) {
		t.Fatalf("first Do: err = %v", err)
	}
	if _, err := m.Do("k", fail); !errors.Is(err, boom) {
		t.Fatalf("second Do: err = %v", err)
	}
	if n := computes.Load(); n != 1 {
		t.Fatalf("failed compute retried: ran %d times", n)
	}
}

func TestMemoDistinctKeys(t *testing.T) {
	var m Memo[int, int]
	for i := 0; i < 10; i++ {
		v, err := m.Do(i, func() (int, error) { return i * i, nil })
		if err != nil || v != i*i {
			t.Fatalf("Do(%d) = (%d, %v)", i, v, err)
		}
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestFrontierRangeWindow(t *testing.T) {
	// f(i) contributes point (i+1, 1000-i): every index lands on the
	// frontier, so the window's points are exactly its indices.
	mk := func() ChunkFunc {
		return func(lo, hi int64, b *pareto.Builder) int64 {
			for i := lo; i < hi; i++ {
				b.Add(i+1, 1000-i)
			}
			return hi - lo
		}
	}
	curve, stats := mustFrontierRange(t, 30, 60, 3, mk)
	if curve.Len() != 30 {
		t.Fatalf("window curve has %d points, want 30", curve.Len())
	}
	pts := curve.Points()
	if pts[0].BufferBytes != 31 || pts[len(pts)-1].BufferBytes != 60 {
		t.Fatalf("window covered buffers %d..%d, want 31..60", pts[0].BufferBytes, pts[len(pts)-1].BufferBytes)
	}
	if stats.Items != 30 || stats.Evaluated != 30 {
		t.Fatalf("stats %+v, want 30 items/evaluated", stats)
	}

	// A disjoint cover of [0, 100) unions to the full-range frontier.
	full, _ := mustFrontier(t, 100, 2, mk)
	var parts []*pareto.Curve
	for _, cut := range [][2]int64{{0, 7}, {7, 60}, {60, 60}, {60, 100}} {
		c, _ := mustFrontierRange(t, cut[0], cut[1], 2, mk)
		parts = append(parts, c)
	}
	union := pareto.Union(parts...)
	if got, want := fmt.Sprint(union.Points()), fmt.Sprint(full.Points()); got != want {
		t.Fatalf("union of range frontiers differs from full frontier\n got %s\nwant %s", got, want)
	}
}
