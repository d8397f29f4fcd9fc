package fleet

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRegistryMembership pins the dynamic-membership bookkeeping:
// Add/Remove/SetWorkers reconcile the member set while preserving the
// state of workers that stay.
func TestRegistryMembership(t *testing.T) {
	r := NewRegistry([]string{"A", "B"}, RegistryConfig{})
	if got := r.Len(); got != 2 {
		t.Fatalf("Len %d, want 2", got)
	}
	if r.Add("A") {
		t.Fatal("re-adding an existing member reported a join")
	}
	if !r.Add("C") || r.Len() != 3 {
		t.Fatal("adding a fresh member failed")
	}

	// B accumulates state that must survive reconciliation.
	r.done("B", time.Second, nil)
	added, removed := r.SetWorkers([]string{"B", "D"})
	if added != 1 || removed != 2 {
		t.Fatalf("SetWorkers added %d removed %d, want 1 and 2", added, removed)
	}
	urls := r.URLs()
	if len(urls) != 2 || urls[0] != "B" || urls[1] != "D" {
		t.Fatalf("URLs after reconcile %v, want [B D]", urls)
	}
	for _, ws := range r.Snapshot() {
		if ws.URL == "B" && ws.Completions != 1 {
			t.Fatalf("B lost its state across SetWorkers: %+v", ws)
		}
	}

	if !r.Remove("B") || r.Remove("B") {
		t.Fatal("Remove bookkeeping wrong")
	}
}

// TestRegistryAcquireEmptyMembership pins the no-hang guarantee: an
// empty membership fails acquire with ErrNoWorkers immediately.
func TestRegistryAcquireEmptyMembership(t *testing.T) {
	r := NewRegistry(nil, RegistryConfig{})
	if _, err := r.acquire(context.Background(), ""); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("acquire on empty membership: %v, want ErrNoWorkers", err)
	}
}

// TestRegistryJoinUnblocksWaiter pins mid-run joins: a shard blocked
// waiting for any slot starts using a worker the moment it is added.
func TestRegistryJoinUnblocksWaiter(t *testing.T) {
	r := NewRegistry([]string{"A"}, RegistryConfig{PerWorker: 1})
	if w, ok := r.tryAcquire(nil); !ok || w != "A" {
		t.Fatalf("tryAcquire %q %v, want A", w, ok)
	}
	got := make(chan string, 1)
	go func() {
		w, err := r.acquire(context.Background(), "")
		if err != nil {
			t.Error(err)
		}
		got <- w
	}()
	// The waiter is blocked on A's single busy slot; a join must wake it.
	time.Sleep(10 * time.Millisecond)
	r.Add("B")
	select {
	case w := <-got:
		if w != "B" {
			t.Fatalf("woken waiter acquired %q, want the fresh joiner B", w)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never observed the join")
	}
}

// TestRegistryRemoveFailsWaiter pins the other half of the no-hang
// guarantee: when the last member leaves, blocked waiters fail with
// ErrNoWorkers instead of waiting for a join that may never come.
func TestRegistryRemoveFailsWaiter(t *testing.T) {
	r := NewRegistry([]string{"A"}, RegistryConfig{PerWorker: 1})
	r.tryAcquire(nil)
	got := make(chan error, 1)
	go func() {
		_, err := r.acquire(context.Background(), "")
		got <- err
	}()
	time.Sleep(10 * time.Millisecond)
	r.Remove("A")
	select {
	case err := <-got:
		if !errors.Is(err, ErrNoWorkers) {
			t.Fatalf("waiter got %v, want ErrNoWorkers", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter hung after the last member left")
	}
}

// TestRegistryHoldExpiry pins the Retry-After hold: the held worker is
// unpickable until the hold expires, at which point blocked waiters are
// woken by the registry's timed wake — no external event needed.
func TestRegistryHoldExpiry(t *testing.T) {
	r := NewRegistry([]string{"A"}, RegistryConfig{})
	r.done("A", 0, &RetryAfterError{Worker: "A", After: 60 * time.Millisecond})
	if _, ok := r.tryAcquire(nil); ok {
		t.Fatal("held worker was pickable")
	}
	start := time.Now()
	w, err := r.acquire(context.Background(), "")
	if err != nil || w != "A" {
		t.Fatalf("acquire after hold: %q, %v", w, err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("acquire returned after %v, before the hold expired", elapsed)
	}
}

// TestRegistryBreakerShedsAndProbes pins load-shedding end to end: an
// open breaker makes the worker unpickable for the cooldown, then the
// registry's timed wake admits exactly one half-open probe dispatch,
// and a probe success re-closes the breaker.
func TestRegistryBreakerShedsAndProbes(t *testing.T) {
	r := NewRegistry([]string{"A"}, RegistryConfig{
		Breaker: BreakerConfig{Failures: 1, Cooldown: 60 * time.Millisecond},
	})
	r.done("A", 0, errors.New("injected"))
	if g := r.Gauges(); g.Open != 1 {
		t.Fatalf("gauges after trip: %+v, want one open", g)
	}
	if _, ok := r.tryAcquire(nil); ok {
		t.Fatal("open breaker admitted a dispatch during cooldown")
	}

	start := time.Now()
	w, err := r.acquire(context.Background(), "")
	if err != nil || w != "A" {
		t.Fatalf("probe acquire: %q, %v", w, err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("probe admitted after %v, before the cooldown", elapsed)
	}
	if g := r.Gauges(); g.HalfOpen != 1 {
		t.Fatalf("gauges during probe: %+v, want one half_open", g)
	}
	// While the probe is in flight nothing else is admissible.
	if _, ok := r.tryAcquire(nil); ok {
		t.Fatal("half-open breaker admitted a second dispatch")
	}
	r.done("A", time.Millisecond, nil)
	if g := r.Gauges(); g.Healthy != 1 || g.Open != 0 || g.HalfOpen != 0 {
		t.Fatalf("gauges after probe success: %+v, want one healthy", g)
	}
}

// TestRegistryThroughputEWMA pins the allocation score's input: each
// success folds a shards/sec sample into the estimate, and the snapshot
// exposes it.
func TestRegistryThroughputEWMA(t *testing.T) {
	r := NewRegistry([]string{"A"}, RegistryConfig{})
	r.done("A", time.Second, nil) // first sample sets the estimate: 1/s
	r.done("A", 250*time.Millisecond, nil)
	ws := r.Snapshot()[0]
	// DefaultEWMAAlpha 0.3: 0.3*4 + 0.7*1 = 1.9 shards/sec.
	if ws.ShardsPerSec < 1.89 || ws.ShardsPerSec > 1.91 {
		t.Fatalf("EWMA %v, want 1.9", ws.ShardsPerSec)
	}
	if ws.Completions != 2 {
		t.Fatalf("completions %d, want 2", ws.Completions)
	}
}

// TestRegistryProbe pins probe semantics against live endpoints: each
// probe outcome feeds the worker's breaker like a dispatch outcome, so
// the configured count of consecutive failed probes opens it (the
// worker reads unhealthy) and one answered probe re-closes it.
func TestRegistryProbe(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			t.Errorf("probe hit %s, want /readyz", r.URL.Path)
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer healthy.Close()
	var sick bool
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if sick {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer flaky.Close()

	r := NewRegistry([]string{healthy.URL, flaky.URL}, RegistryConfig{Breaker: BreakerConfig{Failures: 2}})
	ctx := context.Background()
	r.Probe(ctx, nil)
	if g := r.Gauges(); g.Healthy != 2 {
		t.Fatalf("gauges after clean probe: %+v, want 2 healthy", g)
	}

	sick = true
	r.Probe(ctx, nil)
	if g := r.Gauges(); g.Healthy != 2 {
		t.Fatalf("one failed probe already opened the breaker: %+v", g)
	}
	r.Probe(ctx, nil)
	if g := r.Gauges(); g.Healthy != 1 || g.Open != 1 {
		t.Fatalf("gauges after %d failed probes: %+v, want 1 healthy, 1 open", 2, g)
	}
	var found bool
	for _, ws := range r.Snapshot() {
		if ws.URL == flaky.URL {
			found = true
			if ws.Healthy || ws.Breaker != "open" || ws.LastProbeError == "" {
				t.Fatalf("unhealthy worker snapshot %+v", ws)
			}
		}
	}
	if !found {
		t.Fatal("flaky worker missing from snapshot")
	}

	sick = false
	r.Probe(ctx, nil)
	if g := r.Gauges(); g.Healthy != 2 {
		t.Fatalf("gauges after recovery probe: %+v, want 2 healthy", g)
	}
}

// TestRegistryProbedOutWorkerGetsCooldownDispatch pins that a lone
// worker whose probes fail is shed only until its breaker cooldown ends:
// then it gets the half-open dispatch, so a fleet whose every probe
// fails still makes progress instead of deadlocking.
func TestRegistryProbedOutWorkerGetsCooldownDispatch(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer down.Close()
	r := NewRegistry([]string{down.URL}, RegistryConfig{
		Breaker: BreakerConfig{Failures: 1, Cooldown: 60 * time.Millisecond},
	})
	start := time.Now()
	r.Probe(context.Background(), nil)
	if _, ok := r.tryAcquire(nil); ok {
		t.Fatal("worker with a failed probe was dispatched to during its cooldown")
	}
	w, err := r.acquire(context.Background(), "")
	if err != nil || w != down.URL {
		t.Fatalf("acquire after cooldown: %q, %v", w, err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("dispatch admitted after %v, before the cooldown", elapsed)
	}
	if g := r.Gauges(); g.HalfOpen != 1 {
		t.Fatalf("gauges %+v, want the dispatch to be the half-open probe", g)
	}
}
