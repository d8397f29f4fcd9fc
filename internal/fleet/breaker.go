package fleet

import "time"

// Defaults for the per-worker circuit breaker; tests shorten them via
// BreakerConfig.
const (
	// DefaultBreakerFailures is the consecutive-failure count that opens
	// a worker's breaker when BreakerConfig.Failures is unset.
	DefaultBreakerFailures = 3

	// DefaultBreakerCooldown is how long an open breaker sheds load
	// before admitting its half-open probe dispatch, when
	// BreakerConfig.Cooldown is unset.
	DefaultBreakerCooldown = 5 * time.Second
)

// BreakerState is a circuit breaker's position in its state machine.
type BreakerState int

// The breaker states: a closed breaker admits dispatches; an open one
// sheds them until its cooldown elapses; a half-open one has exactly one
// probe dispatch in flight whose outcome decides between re-closing and
// re-opening.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state as its /stats gauge label.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half_open"
	}
	return "unknown"
}

// BreakerConfig tunes the per-worker circuit breakers
// (docs/fleet-protocol.md "Health, membership & breakers"). The zero
// value opens a breaker after DefaultBreakerFailures consecutive
// failures for DefaultBreakerCooldown.
type BreakerConfig struct {
	// Failures opens the breaker after this many consecutive dispatch
	// failures; <= 0 means DefaultBreakerFailures.
	Failures int

	// Cooldown is how long an open breaker sheds load before admitting
	// its half-open probe dispatch; <= 0 means DefaultBreakerCooldown.
	Cooldown time.Duration
}

func (c BreakerConfig) failures() int {
	if c.Failures <= 0 {
		return DefaultBreakerFailures
	}
	return c.Failures
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return DefaultBreakerCooldown
	}
	return c.Cooldown
}

// breaker is one worker's circuit breaker. It is not self-locking: the
// Registry serializes every call under its own mutex, and passes `now`
// in so tests can drive the clock.
type breaker struct {
	cfg BreakerConfig

	state    BreakerState
	fails    int // consecutive failures while closed
	openedAt time.Time
}

// admissible reports whether a dispatch may be sent through the breaker
// at time now, and whether that dispatch would be the half-open probe. A
// closed breaker admits freely; an open one admits nothing until its
// cooldown elapses, then exactly one probe; a half-open one admits
// nothing while its probe is in flight.
func (b *breaker) admissible(now time.Time) (ok, probe bool) {
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cfg.cooldown() {
			return true, true
		}
	}
	return false, false
}

// probeAt transitions open → half-open as the probe dispatch launches.
// The caller must have seen admissible return probe=true under the same
// lock.
func (b *breaker) probeAt() {
	b.state = BreakerHalfOpen
}

// retryAt reports when an open breaker will next admit a dispatch (its
// half-open probe), and false for breakers that admit now or are waiting
// on an in-flight probe.
func (b *breaker) retryAt() (time.Time, bool) {
	if b.state == BreakerOpen {
		return b.openedAt.Add(b.cfg.cooldown()), true
	}
	return time.Time{}, false
}

// recordSuccess feeds a successful dispatch outcome: any state re-closes
// — a worker that answered correctly is alive, whatever the breaker
// thought — and the failure accounting resets.
func (b *breaker) recordSuccess() {
	b.state = BreakerClosed
	b.fails = 0
}

// recordFailure feeds a failed dispatch outcome at time now: a half-open
// probe failure re-opens immediately; closed-state failures open the
// breaker when they hit the consecutive-failure threshold.
func (b *breaker) recordFailure(now time.Time) {
	switch b.state {
	case BreakerHalfOpen:
		b.open(now)
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.failures() {
			b.open(now)
		}
	}
	// Already open: late outcomes of dispatches launched before the trip
	// change nothing.
}

// open trips the breaker at time now.
func (b *breaker) open(now time.Time) {
	b.state = BreakerOpen
	b.openedAt = now
	b.fails = 0
}
