package traverse

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMemoRearmsAfterCancellation is the memo-poisoning regression test:
// a compute that ends in context cancellation must not be memoized —
// every waiter of that round shares the cancellation error, but the next
// Do call retries and succeeds. Non-cancellation errors stay memoized
// (TestMemoMemoizesErrors pins that side).
func TestMemoRearmsAfterCancellation(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		t.Run(cause.Error(), func(t *testing.T) {
			var m Memo[string, int]
			var computes atomic.Int32

			// Round 1: many goroutines pile onto one key whose compute is
			// cancelled. Whoever shares the in-flight computation gets the
			// error; goroutines arriving after the re-arm recompute (and
			// are cancelled again) — either way nothing is memoized.
			var startOnce sync.Once
			started := make(chan struct{})
			release := make(chan struct{})
			const waiters = 16
			var wg sync.WaitGroup
			errs := make([]error, waiters)
			for g := 0; g < waiters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					_, errs[g] = m.Do("k", func() (int, error) {
						computes.Add(1)
						startOnce.Do(func() { close(started) })
						<-release
						// Wrapped like a real derivation error, so the
						// re-arm must use errors.Is, not ==.
						return 0, fmt.Errorf("sub-chain sweep: %w", cause)
					})
				}(g)
			}
			<-started
			close(release)
			wg.Wait()
			for g, err := range errs {
				if !errors.Is(err, cause) {
					t.Fatalf("waiter %d: err = %v, want %v", g, err, cause)
				}
			}
			round1 := computes.Load()
			if round1 < 1 {
				t.Fatalf("round 1 computed %d times, want >= 1", round1)
			}
			if m.Len() != 0 {
				t.Fatalf("cancelled entry still memoized (Len = %d)", m.Len())
			}

			// Round 2: the key is retried — concurrently again — and now
			// succeeds exactly once for everyone.
			vals := make([]int, waiters)
			for g := 0; g < waiters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					v, err := m.Do("k", func() (int, error) {
						computes.Add(1)
						return 42, nil
					})
					if err != nil {
						t.Errorf("retry waiter %d: %v", g, err)
					}
					vals[g] = v
				}(g)
			}
			wg.Wait()
			for g, v := range vals {
				if v != 42 {
					t.Fatalf("retry waiter %d got %d, want 42", g, v)
				}
			}
			if n := computes.Load(); n != round1+1 {
				t.Fatalf("retry after cancellation computed %d times total, want %d", n, round1+1)
			}
			if m.Len() != 1 {
				t.Fatalf("successful retry not memoized (Len = %d)", m.Len())
			}
		})
	}
}

// Len returns the number of memoized keys.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
