// Package traverse is the shared parallel-traversal substrate of the
// Orojenesis flow. Every exhaustive derivation in this repo — the perfect-
// and imperfect-factor Snowcat searches, the fused-template sweep, and the
// 2^(E-1) segmentation study — reduces to the same shape of work: an
// index-addressable enumeration whose per-index results feed a Pareto
// frontier (or an output slot keyed by index). This package distributes
// such enumerations across workers in dynamically grabbed contiguous
// chunks (Partition), with per-worker accumulators merged after the
// traversal; Frontier specializes the engine to Pareto-frontier reductions
// (a private pareto.Builder per worker, pareto.Union as the merge), and
// Each to index-keyed output slots.
//
// Chunked index distribution — rather than sharding by the factor
// structure of one rank — means utilization scales with GOMAXPROCS
// regardless of the divisor counts of any particular dimension, and the
// dynamic grab balances chunks whose per-index cost is irregular.
//
// Because the Pareto frontier is insensitive to insertion order (merging
// never resurrects a dominated point and never drops a non-dominated one),
// the merged curve is byte-identical to a serial traversal's for any
// worker count.
//
// Paper mapping: this engine is the mechanical substrate of the Sec.
// III-B exhaustive traversal, whose low single-run cost (Table I) is the
// paper's case for bound derivation over mapping-aware DSE. FrontierRange
// restricts a traversal to an index sub-range, which is what
// internal/shard builds cross-process sharding on.
//
// Every entry point takes a context.Context and observes cancellation at
// chunk granularity: a worker checks the context before grabbing each
// chunk, so cancelling returns within roughly one worker chunk (about
// 1/(workers*chunksPerWorker) of the traversal) rather than only at the
// end. A cancelled traversal returns the context's error and no curve —
// the evaluated subset of indices is not otherwise recoverable, so a
// partial frontier would silently under-approximate.
//
// Panics in chunk functions are contained: each worker recovers, stops its
// peers, and the traversal returns a *PanicError instead of crashing the
// process — the foundation of the derivation server's per-request panic
// isolation (internal/serve).
package traverse

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pareto"
)

// PanicError is a panic recovered inside a traversal worker, converted to
// an ordinary error so one panicking chunk function fails its traversal
// cleanly instead of crashing the whole process — the containment a
// long-lived derivation server (internal/serve) needs to turn an evaluator
// bug into a per-request failure. Value is the recovered panic value and
// Stack the worker goroutine's stack at recovery time.
type PanicError struct {
	Value any
	Stack []byte
}

// Error renders the panic value; the stack is kept separate so callers log
// it rather than ship it to users.
func (e *PanicError) Error() string {
	return fmt.Sprintf("traverse: worker panic: %v", e.Value)
}

// Recovered builds a PanicError from a recovered panic value, capturing
// the current goroutine's stack. Exposed so other layers that run
// derivation work on their own goroutines (the serve package's flight
// runner) convert recovered panics to the same error class the traversal
// engine reports.
func Recovered(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// runChunk invokes one chunk function with panic containment: a panic in
// fn becomes a *PanicError return instead of unwinding the worker
// goroutine (which would crash the process, since goroutine panics cannot
// be recovered by anyone else). stop runs first on a panic, before the
// stack capture, so peers stop grabbing chunks while the stack is taken.
func runChunk(fn RangeFunc, lo, hi int64, stop func()) (n int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			stop()
			err = Recovered(r)
		}
	}()
	return fn(lo, hi), nil
}

// chunksPerWorker sets the granularity of the dynamic distribution: the
// index space is cut into about this many chunks per worker, so stragglers
// (chunks whose indices happen to be expensive) cost at most ~1/chunksPer-
// Worker of a worker's share of imbalance.
const chunksPerWorker = 16

// Stats reports what a traversal actually did, feeding the Table I runtime
// comparison and the cmd tools' -stats output.
type Stats struct {
	Workers   int   // workers actually launched
	Items     int64 // enumeration indices processed
	Evaluated int64 // points evaluated, as reported by chunk funcs
	Elapsed   time.Duration
}

// PerSec returns the evaluation throughput in points per second.
func (s Stats) PerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Evaluated) / s.Elapsed.Seconds()
}

// Phase is one timed stage of a multi-phase study (e.g. per-op curves,
// template sweep, segmentation), surfaced by the cmd tools behind -stats.
type Phase struct {
	Name      string
	Evaluated int64
	Workers   int
	Elapsed   time.Duration
}

// PerSec returns the phase's evaluation throughput in points per second.
func (p Phase) PerSec() float64 {
	return Stats{Evaluated: p.Evaluated, Elapsed: p.Elapsed}.PerSec()
}

// ResolveWorkers maps a Workers option to a concrete count: values <= 0
// mean GOMAXPROCS.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// RangeFunc processes the enumeration indices [lo, hi) and returns the
// number of points it evaluated (which can differ from hi-lo when indices
// expand into several mappings, or are skipped by pruning).
type RangeFunc func(lo, hi int64) int64

// WorkerCount resolves a Workers option against an index-space size: the
// number of workers Partition will actually launch — ResolveWorkers
// clamped to the number of items, never below 1. Callers size per-worker
// accumulator slices with it before handing them to Partition's newWorker.
func WorkerCount(items int64, workers int) int {
	return clampWorkers(workers, items)
}

// Partition is the traversal engine every exhaustive enumeration in this
// repo runs on: it distributes the index range [0, items) across exactly
// workerCount workers (use WorkerCount to compute it) in dynamically
// grabbed contiguous chunks. newWorker is called once per worker with a
// dense slot index w in [0, workerCount), so per-worker state — an
// evaluator, a Pareto builder, a best-so-far accumulator — lives in the
// closure or in a w-indexed slice without synchronization, and the caller
// merges the slots deterministically after Partition returns. A worker's
// chunks arrive in ascending index order, so within one worker the visit
// sequence is a subsequence of the serial enumeration.
//
// Cancelling ctx stops every worker before its next chunk grab; Partition
// then returns the context's error with Stats covering the work actually
// done. Per-worker accumulators are in an undefined partial state after a
// cancelled traversal and must be discarded.
//
// A panic in a chunk function is recovered inside its worker, the other
// workers are stopped before their next chunk grab, and Partition returns
// a *PanicError carrying the panic value and stack — a buggy evaluator
// fails one traversal, never the process. Accumulators must be discarded
// exactly as after a cancellation.
func Partition(ctx context.Context, items int64, workerCount int, newWorker func(w int) RangeFunc) (Stats, error) {
	start := time.Now()
	if items <= 0 {
		return Stats{Elapsed: time.Since(start)}, ctx.Err()
	}
	w := int(min(max(int64(workerCount), 1), items))
	chunk := chunkSize(items, w)

	// pctx lets a panicking worker stop its peers before their next chunk
	// grab, exactly like an external cancellation.
	pctx, pcancel := context.WithCancel(ctx)
	defer pcancel()

	var next atomic.Int64
	counts := make([]int64, w)
	grabbed := make([]int64, w)
	panics := make([]error, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn := newWorker(i)
			var n, items2 int64
			for pctx.Err() == nil {
				lo := next.Add(chunk) - chunk
				if lo >= items {
					break
				}
				hi := lo + chunk
				if hi > items {
					hi = items
				}
				cn, cerr := runChunk(fn, lo, hi, pcancel)
				if cerr != nil {
					panics[i] = cerr
					break
				}
				n += cn
				items2 += hi - lo
			}
			counts[i] = n
			grabbed[i] = items2
		}(i)
	}
	wg.Wait()

	var total, visited int64
	for i := range counts {
		total += counts[i]
		visited += grabbed[i]
	}
	stats := Stats{Workers: w, Items: visited, Evaluated: total, Elapsed: time.Since(start)}
	for _, perr := range panics {
		if perr != nil {
			// A worker panic outranks the cancellation it triggered: the
			// caller needs the root cause, not the induced ctx error.
			return stats, perr
		}
	}
	if visited == items {
		// Every index was processed before the workers saw the
		// cancellation: the traversal is complete, so report success —
		// discarding finished work over a late cancel would be waste.
		return stats, nil
	}
	return stats, ctx.Err()
}

// ChunkFunc processes the enumeration indices [lo, hi), adding frontier
// candidates to b, and returns the number of points it evaluated.
type ChunkFunc func(lo, hi int64, b *pareto.Builder) int64

// FrontierRange distributes the global index window [lo, hi) over
// workers and merges the per-worker Pareto frontiers — Partition
// instantiated with a private pareto.Builder per worker and pareto.Union
// as the merge. newWorker is called once per worker to build its chunk
// function, so per-worker state (an evaluator, a reusable mapping) lives
// in the closure without synchronization. The result is byte-identical
// for every worker count. Chunk functions receive global indices from the
// window only, so a caller holding one slice of a larger enumeration — a
// shard of a cross-process traversal (internal/shard), or one checkpoint
// block of a resumable run — evaluates exactly its share. Because
// the Pareto frontier of a union equals the frontier of the per-part
// frontiers' union, curves derived over a disjoint cover of [0, items)
// merge (pareto.Union) to the byte-identical full-range curve.
// A cancelled traversal returns (nil, stats, ctx.Err()) — never a curve
// over an unidentifiable subset of the window.
func FrontierRange(ctx context.Context, lo, hi int64, workers int, newWorker func() ChunkFunc) (*pareto.Curve, Stats, error) {
	items := hi - lo
	w := WorkerCount(items, workers)
	builders := make([]*pareto.Builder, w)
	stats, err := Partition(ctx, items, w, func(wi int) RangeFunc {
		fn := newWorker()
		b := pareto.NewBuilder()
		builders[wi] = b
		return func(clo, chi int64) int64 { return fn(lo+clo, lo+chi, b) }
	})
	if err != nil {
		return nil, stats, err
	}
	curves := make([]*pareto.Curve, 0, len(builders))
	for _, b := range builders {
		if b != nil {
			curves = append(curves, b.Curve())
		}
	}
	return pareto.Union(curves...), stats, nil
}

// Each runs fn(i) for every index in [0, items) across workers. fn must be
// safe for concurrent invocation on distinct indices; writing to
// index-keyed slots of a pre-sized slice keeps results deterministic.
// A cancelled traversal returns ctx.Err() with an unspecified subset of
// indices visited.
func Each(ctx context.Context, items int64, workers int, fn func(i int64)) (Stats, error) {
	return Partition(ctx, items, WorkerCount(items, workers), func(int) RangeFunc {
		return func(lo, hi int64) int64 {
			for j := lo; j < hi; j++ {
				fn(j)
			}
			return hi - lo
		}
	})
}

func clampWorkers(workers int, items int64) int {
	w := ResolveWorkers(workers)
	if int64(w) > items {
		w = int(items)
	}
	if w < 1 {
		w = 1
	}
	return w
}

func chunkSize(items int64, workers int) int64 {
	c := items / int64(workers*chunksPerWorker)
	if c < 1 {
		c = 1
	}
	return c
}
