package traverse

import (
	"context"
	"errors"
	"sync"
)

// Memo is a concurrency-safe memoization table: for each key the compute
// function runs exactly once, even when many workers ask for the same key
// simultaneously; later callers block until the first computation
// finishes and then share its result (and its error). It replaces the
// plain maps that made serial caches unshareable across workers.
//
// Errors are memoized — a failed computation is not retried — with one
// deliberate exception: context cancellation. A compute that returns
// context.Canceled or context.DeadlineExceeded reports the caller's
// intent (a request hung up, a deadline fired), not a property of the
// key, so the entry is re-armed and the next Do call computes afresh.
// Without this, one cancelled request would poison the memo for every
// later caller sharing it — fatal for caches that live across requests
// or across the checkpoint blocks of a resumable shard run.
//
// The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	done chan struct{} // closed once val/err are final
	val  V
	err  error
}

// Do returns the memoized value for key, computing it with compute on
// first use. Concurrent callers of the same key share one computation:
// whoever arrives first computes, the rest block until it finishes.
// Callers waiting on a computation that ends in cancellation all receive
// the cancellation error (their shared computation really did not run to
// completion), but the entry itself is forgotten, so any later Do call
// retries instead of replaying the stale error.
func (m *Memo[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	m.mu.Lock()
	if m.m == nil {
		m.m = make(map[K]*memoEntry[V])
	}
	if e, ok := m.m[key]; ok {
		m.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &memoEntry[V]{done: make(chan struct{})}
	m.m[key] = e
	m.mu.Unlock()

	e.val, e.err = compute()
	if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
		// Re-arm: drop the entry (if it is still ours — a concurrent
		// retry may already have replaced it) before releasing waiters,
		// so no Do call after this point can latch onto the dead entry.
		m.mu.Lock()
		if m.m[key] == e {
			delete(m.m, key)
		}
		m.mu.Unlock()
	}
	close(e.done)
	return e.val, e.err
}
