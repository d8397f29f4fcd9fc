package traverse

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/pareto"
)

// TestPanicInChunkFailsTraversalCleanly pins the containment contract the
// derivation server's 500 path builds on: a panicking ChunkFunc fails the
// traversal with a *PanicError (value + stack) instead of crashing the
// process, for both the parallel pool and the serial fast path.
func TestPanicInChunkFailsTraversalCleanly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c, _, err := FrontierRange(context.Background(), 0, 10000, workers, func() ChunkFunc {
			return func(lo, hi int64, b *pareto.Builder) int64 {
				panic("evaluator bug")
			}
		})
		if c != nil {
			t.Fatalf("workers=%d: panicked traversal returned a curve", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Value != "evaluator bug" {
			t.Fatalf("workers=%d: panic value %v, want the original", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panic_test") {
			t.Fatalf("workers=%d: PanicError stack does not point at the panic site", workers)
		}
		if !strings.Contains(pe.Error(), "evaluator bug") {
			t.Fatalf("workers=%d: Error() %q omits the panic value", workers, pe.Error())
		}
	}
}

// TestPanicStopsPeerWorkers: after one worker panics, the remaining
// workers stop before their next chunk grab — the panic behaves like a
// cancellation for everyone else, so a poisoned traversal does not keep
// burning CPU on work whose result will be discarded.
func TestPanicStopsPeerWorkers(t *testing.T) {
	const items = 1 << 20
	const workers = 4
	var chunks atomic.Int64
	_, stats, err := FrontierRange(context.Background(), 0, items, workers, func() ChunkFunc {
		return func(lo, hi int64, b *pareto.Builder) int64 {
			if chunks.Add(1) == 1 {
				panic("first chunk dies")
			}
			return hi - lo
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	// The panicking chunk plus at most one in-flight chunk per other
	// worker may run; anything beyond that means peers kept grabbing.
	if n := chunks.Load(); n > workers {
		t.Fatalf("%d chunks ran after the first panic; want at most %d", n, workers)
	}
	if stats.Items >= items {
		t.Fatal("stats claim a complete traversal despite the panic")
	}
}

// TestPanicInPartitionWorkerState: Partition reports the panic to its
// caller with per-worker accumulators discarded by contract — the error
// must surface even when other workers completed their shares.
func TestPanicInPartitionWorkerState(t *testing.T) {
	w := WorkerCount(1000, 4)
	_, err := Partition(context.Background(), 1000, w, func(wi int) RangeFunc {
		return func(lo, hi int64) int64 {
			panic(errors.New("typed panic value"))
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if _, ok := pe.Value.(error); !ok {
		t.Fatalf("panic value %v lost its type", pe.Value)
	}
}
