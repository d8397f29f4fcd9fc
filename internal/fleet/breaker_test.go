package fleet

import (
	"testing"
	"time"
)

// TestBreakerConsecutiveFailures walks the state machine through its
// main cycle: closed → open on the consecutive-failure threshold →
// half-open probe after the cooldown → re-open on probe failure →
// re-close on probe success.
func TestBreakerConsecutiveFailures(t *testing.T) {
	now := time.Unix(1000, 0)
	b := breaker{cfg: BreakerConfig{Failures: 3, Cooldown: time.Second}}

	for i := 0; i < 2; i++ {
		b.recordFailure(now)
	}
	if ok, _ := b.admissible(now); !ok || b.state != BreakerClosed {
		t.Fatalf("after 2 failures: state %v, want closed and admissible", b.state)
	}
	b.recordFailure(now)
	if b.state != BreakerOpen {
		t.Fatalf("after 3 failures: state %v, want open", b.state)
	}
	if ok, _ := b.admissible(now.Add(500 * time.Millisecond)); ok {
		t.Fatal("open breaker admitted a dispatch before its cooldown")
	}
	if at, ok := b.retryAt(); !ok || !at.Equal(now.Add(time.Second)) {
		t.Fatalf("retryAt %v ok=%v, want openedAt+cooldown", at, ok)
	}

	later := now.Add(time.Second)
	ok, probe := b.admissible(later)
	if !ok || !probe {
		t.Fatalf("cooldown elapsed: admissible=%v probe=%v, want probe admission", ok, probe)
	}
	b.probeAt()
	if b.state != BreakerHalfOpen {
		t.Fatalf("after probeAt: state %v, want half_open", b.state)
	}
	if ok, _ := b.admissible(later); ok {
		t.Fatal("half-open breaker admitted a second dispatch while its probe is in flight")
	}

	// Probe failure re-opens; a fresh cooldown applies.
	b.recordFailure(later)
	if b.state != BreakerOpen {
		t.Fatalf("after probe failure: state %v, want open", b.state)
	}
	if ok, _ := b.admissible(later.Add(999 * time.Millisecond)); ok {
		t.Fatal("re-opened breaker did not restart its cooldown")
	}

	// Probe success re-closes and resets the failure count.
	later = later.Add(time.Second)
	if ok, probe := b.admissible(later); !ok || !probe {
		t.Fatal("re-opened breaker refused its second probe")
	}
	b.probeAt()
	b.recordSuccess()
	if b.state != BreakerClosed || b.fails != 0 {
		t.Fatalf("after probe success: state %v fails %d, want closed with reset count", b.state, b.fails)
	}
}

// TestBreakerSuccessResetsCount pins that non-consecutive failures never
// open the breaker: a success between failures resets the streak.
func TestBreakerSuccessResetsCount(t *testing.T) {
	now := time.Unix(1000, 0)
	b := breaker{cfg: BreakerConfig{Failures: 3, Cooldown: time.Second}}
	for i := 0; i < 5; i++ {
		b.recordFailure(now)
		b.recordFailure(now)
		b.recordSuccess()
	}
	if b.state != BreakerClosed {
		t.Fatalf("interleaved failures opened the breaker: state %v", b.state)
	}
}

// TestBreakerLateFailureWhileOpen pins that outcomes of dispatches
// launched before the trip do not disturb an open breaker's cooldown.
func TestBreakerLateFailureWhileOpen(t *testing.T) {
	now := time.Unix(1000, 0)
	b := breaker{cfg: BreakerConfig{Failures: 1, Cooldown: time.Second}}
	b.recordFailure(now)
	if b.state != BreakerOpen {
		t.Fatal("breaker did not open")
	}
	b.recordFailure(now.Add(900 * time.Millisecond))
	if at, _ := b.retryAt(); !at.Equal(now.Add(time.Second)) {
		t.Fatalf("late failure moved the cooldown: retryAt %v", at)
	}
}
