package traverse

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/pareto"
)

// TestCancelReturnsWithinOneChunk pins the cancellation-latency contract:
// after ctx is cancelled, no worker grabs another chunk, so the traversal
// returns within at most one in-flight chunk per worker. The chunk
// function cancels on its first invocation, which bounds the total chunks
// started at the worker count.
func TestCancelReturnsWithinOneChunk(t *testing.T) {
	const items = 100000
	const workers = 4
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int64
	c, stats, err := FrontierRange(ctx, 0, items, workers, func() ChunkFunc {
		return func(lo, hi int64, b *pareto.Builder) int64 {
			started.Add(1)
			cancel()
			return hi - lo
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if c != nil {
		t.Fatal("cancelled traversal returned a partial curve")
	}
	if n := started.Load(); n > workers {
		t.Fatalf("%d chunks started after first cancellation; want at most one in-flight chunk per worker (%d)", n, workers)
	}
	if stats.Items >= items {
		t.Fatalf("stats claim %d of %d indices despite cancellation", stats.Items, items)
	}
}

// TestCancelSerialBetweenChunks: a single-worker traversal is also
// chunked, so a cancel mid-traversal stops before the next chunk instead
// of running the whole range.
func TestCancelSerialBetweenChunks(t *testing.T) {
	const items = 100000
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	_, stats, err := FrontierRange(ctx, 0, items, 1, func() ChunkFunc {
		return func(lo, hi int64, b *pareto.Builder) int64 {
			if calls.Add(1) == 1 {
				cancel()
			}
			return hi - lo
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("serial path ran %d chunks after cancellation, want 1", n)
	}
	if stats.Evaluated >= items {
		t.Fatalf("evaluated %d of %d despite cancellation", stats.Evaluated, items)
	}
}

// TestCancelAfterCompletionIsSuccess: a cancellation that lands when every
// index is already processed must not discard the finished traversal.
func TestCancelAfterCompletionIsSuccess(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, stats, err := FrontierRange(ctx, 0, 1000, 4, func() ChunkFunc {
		return func(lo, hi int64, b *pareto.Builder) int64 {
			for i := lo; i < hi; i++ {
				b.Add(i+1, 2000-i)
			}
			if hi == 1000 {
				// Cancel while the final chunk is still in flight.
				cancel()
			}
			return hi - lo
		}
	})
	if err != nil {
		t.Fatalf("complete traversal reported %v after late cancel", err)
	}
	if c == nil || stats.Items != 1000 {
		t.Fatalf("late-cancelled traversal lost results: curve=%v stats=%+v", c, stats)
	}
}

// TestCancelPartitionAndEach: the other two entry points observe
// cancellation the same way.
func TestCancelPartitionAndEach(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before any work
	if _, err := Partition(ctx, 1000, 4, func(int) RangeFunc {
		return func(lo, hi int64) int64 {
			t.Error("worker ran a chunk under a pre-cancelled context")
			return hi - lo
		}
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Partition err = %v, want context.Canceled", err)
	}
	if _, err := Each(ctx, 1000, 4, func(int64) {
		t.Error("Each visited an index under a pre-cancelled context")
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Each err = %v, want context.Canceled", err)
	}
}
