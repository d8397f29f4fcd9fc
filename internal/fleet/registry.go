package fleet

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"
)

// The registry's health and throughput policy.
const (
	// DefaultEWMAAlpha is the smoothing factor of the per-worker
	// shards/sec estimate: each completed dispatch contributes 30% of the
	// new estimate.
	DefaultEWMAAlpha = 0.3

	// DefaultProbeTimeout bounds one health-probe request.
	DefaultProbeTimeout = 2 * time.Second
)

// RegistryConfig tunes a worker Registry.
type RegistryConfig struct {
	// PerWorker is the concurrent-dispatch slot count per worker; <= 0
	// means DefaultPerWorker.
	PerWorker int

	// Breaker configures the per-worker circuit breakers.
	Breaker BreakerConfig

	// Logf, when non-nil, receives membership and health transitions.
	Logf func(format string, args ...any)
}

func (c RegistryConfig) perWorker() int {
	if c.PerWorker <= 0 {
		return DefaultPerWorker
	}
	return c.PerWorker
}

// member is one worker's live state: dispatch slots, its circuit
// breaker, the Retry-After hold, and the throughput estimate. All fields
// are guarded by the Registry mutex.
type member struct {
	url      string
	free     int
	inflight int

	// lastProbe holds the last health-probe error for operators.
	lastProbe string

	// holdUntil keeps the worker out of allocation until the instant a
	// 429/503 Retry-After hinted at.
	holdUntil time.Time

	br breaker

	// ewma is the smoothed shards/sec completion rate (0 until the first
	// completion); completions, dispatches and failures are cumulative.
	ewma        float64
	completions int64
	dispatches  int64
	failures    int64
	lastErr     string
}

// WorkerStatus is one worker's externally visible state: the per-worker
// row of /stats fleet gauges.
type WorkerStatus struct {
	// URL is the worker's base URL (the membership key).
	URL string `json:"url"`
	// Healthy reports a closed breaker.
	Healthy bool `json:"healthy"`
	// Breaker is the circuit-breaker state: closed, open, or half_open.
	Breaker string `json:"breaker"`
	// Held reports an active Retry-After hold at snapshot time.
	Held bool `json:"held,omitempty"`
	// InFlight is the number of dispatches the worker is running now.
	InFlight int `json:"in_flight"`
	// Dispatches, Failures and Completions are cumulative dispatch
	// counts (launched, failed, completed-valid).
	Dispatches  int64 `json:"dispatches"`
	Failures    int64 `json:"failures"`
	Completions int64 `json:"completions"`
	// ShardsPerSec is the EWMA throughput estimate allocation scores by
	// (0 until the first completion).
	ShardsPerSec float64 `json:"shards_per_sec"`
	// LastError is the most recent dispatch failure, if any.
	LastError string `json:"last_error,omitempty"`
	// LastProbeError is the most recent health-probe failure, if any.
	LastProbeError string `json:"last_probe_error,omitempty"`
}

// Gauges are the fleet-level health counts exported as
// /stats.fleet_workers: membership size split by breaker state.
type Gauges struct {
	// Total is the membership size.
	Total int `json:"total"`
	// Healthy counts members with a closed breaker.
	Healthy int `json:"healthy"`
	// Open and HalfOpen count members by tripped-breaker state.
	Open     int `json:"open"`
	HalfOpen int `json:"half_open"`
	// Held counts members under an active Retry-After hold.
	Held int `json:"held"`
}

// Totals are the fleet's cumulative scheduling counts over every run
// that dispatched through a Registry — the /stats fleet_* counters.
type Totals struct {
	// Dispatches counts shard dispatches, speculative duplicates
	// included; Retries retry rounds after failed attempts; Speculations
	// duplicates launched on stragglers; Quarantines invalid responses
	// and unusable spool partials set aside; Deferrals Retry-After
	// deferrals honored without spending retry budget.
	Dispatches, Retries, Speculations, Quarantines, Deferrals int64
}

// Registry is the fleet's live membership and its only worker state: the
// set of worker URLs, each with per-worker dispatch slots, a circuit
// breaker fed by dispatch and probe outcomes alike, Retry-After holds,
// and an EWMA throughput score that allocation ranks by, plus the fleet
// Totals (docs/fleet-protocol.md "Health, membership & breakers").
// Workers can be added and removed at runtime — waiters blocked on a
// slot observe joins immediately — and one Registry may be shared across
// concurrent fleet runs (serve reuses one per server).
type Registry struct {
	cfg RegistryConfig

	mu   sync.Mutex
	cond *sync.Cond
	// members is keyed by worker URL; order fixes iteration for
	// deterministic tie-breaks.
	members map[string]*member
	order   []string
	// wake is the pending timed wake for waiters blocked on a hold
	// expiry or breaker cooldown.
	wake *time.Timer
	// now is the clock (a test seam).
	now func() time.Time

	totals Totals
}

// NewRegistry builds a registry holding the given workers.
func NewRegistry(workers []string, cfg RegistryConfig) *Registry {
	r := &Registry{
		cfg:     cfg,
		members: make(map[string]*member, len(workers)),
		now:     time.Now,
	}
	r.cond = sync.NewCond(&r.mu)
	for _, w := range workers {
		r.addLocked(w)
	}
	return r
}

func (r *Registry) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// addLocked inserts a fresh member. Caller holds mu.
func (r *Registry) addLocked(url string) bool {
	if _, ok := r.members[url]; ok {
		return false
	}
	r.members[url] = &member{
		url:  url,
		free: r.cfg.perWorker(),
		br:   breaker{cfg: r.cfg.Breaker},
	}
	r.order = append(r.order, url)
	return true
}

// Add joins a worker to the membership with a full set of free slots, a
// closed breaker, and an unknown (optimistic) throughput score. Shards
// blocked waiting for a slot observe the join immediately, so a worker
// added mid-run starts receiving queued dispatches. Returns false when
// the worker is already a member.
func (r *Registry) Add(url string) bool {
	r.mu.Lock()
	added := r.addLocked(url)
	r.mu.Unlock()
	if added {
		r.logf("fleet: worker %s joined the membership", url)
		r.cond.Broadcast()
	}
	return added
}

// Remove drops a worker from the membership: it receives no further
// dispatches, and dispatches already in flight to it finish normally
// (their outcomes are discarded from the books). Returns false when the
// worker was not a member.
func (r *Registry) Remove(url string) bool {
	r.mu.Lock()
	_, ok := r.members[url]
	if ok {
		delete(r.members, url)
		for i, w := range r.order {
			if w == url {
				r.order = append(r.order[:i], r.order[i+1:]...)
				break
			}
		}
	}
	r.mu.Unlock()
	if ok {
		r.logf("fleet: worker %s left the membership", url)
		// Waiters must re-check: with the last member gone they fail with
		// ErrNoWorkers instead of waiting forever.
		r.cond.Broadcast()
	}
	return ok
}

// SetWorkers reconciles the membership against urls (the flag-file
// reload path): missing workers join, absent ones leave, existing ones
// keep their health, breaker, and throughput state. Returns how many
// joined and left.
func (r *Registry) SetWorkers(urls []string) (added, removed int) {
	want := make(map[string]bool, len(urls))
	for _, u := range urls {
		want[u] = true
	}
	r.mu.Lock()
	var drop []string
	for u := range r.members {
		if !want[u] {
			drop = append(drop, u)
		}
	}
	r.mu.Unlock()
	sort.Strings(drop)
	for _, u := range drop {
		if r.Remove(u) {
			removed++
		}
	}
	for _, u := range urls {
		if r.Add(u) {
			added++
		}
	}
	return added, removed
}

// URLs returns the current membership in join order.
func (r *Registry) URLs() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// Len is the current membership size.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.order)
}

// score ranks a worker for allocation: observed throughput (EWMA
// shards/sec) divided by its queue depth if it has history, +Inf —
// optimistic — for workers never observed, so new joiners and fresh
// fleets are explored before the scoreboard settles (free-slot count
// breaks those ties).
func (m *member) score() float64 {
	if m.completions == 0 {
		return math.Inf(1)
	}
	return m.ewma / float64(m.inflight+1)
}

// pickLocked chooses the dispatch target at time now among members with
// a free slot that are not excluded, not under a Retry-After hold, and
// whose breaker admits a dispatch. Ranking, most important first:
//
//  1. a worker other than avoid (the one that just failed this shard);
//  2. half-open probes (an open breaker past its cooldown — one probe
//     dispatch re-integrates a recovered worker promptly);
//  3. the throughput score (EWMA shards/sec over queue depth, +Inf when
//     unobserved) — fast workers get proportionally more dispatches;
//  4. free slots, then listing order, for deterministic ties.
//
// Returns the worker, whether the dispatch is its breaker's half-open
// probe, and whether anything was pickable. Caller holds mu.
func (r *Registry) pickLocked(avoid string, exclude map[string]bool, now time.Time) (string, bool, bool) {
	var best *member
	var bestProbe bool
	for _, url := range r.order {
		m := r.members[url]
		if exclude[url] || m.free <= 0 || now.Before(m.holdUntil) {
			continue
		}
		ok, probe := m.br.admissible(now)
		if !ok {
			continue
		}
		if best == nil || better(m, probe, best, bestProbe, avoid) {
			best, bestProbe = m, probe
		}
	}
	if best == nil {
		return "", false, false
	}
	return best.url, bestProbe, true
}

// better compares two allocation candidates by the pickLocked ranking
// (listing order breaks final ties by keeping the incumbent b).
func better(a *member, aProbe bool, b *member, bProbe bool, avoid string) bool {
	if aAvoided, bAvoided := a.url == avoid, b.url == avoid; aAvoided != bAvoided {
		return bAvoided
	}
	if aProbe != bProbe {
		return aProbe
	}
	if as, bs := a.score(), b.score(); as != bs {
		return as > bs
	}
	return a.free > b.free
}

// nextEventLocked finds the earliest future instant a currently
// unpickable member could become pickable — a hold expiring or an open
// breaker reaching its cooldown — so waiters can schedule a timed wake
// instead of sleeping forever. Caller holds mu.
func (r *Registry) nextEventLocked(now time.Time) (time.Time, bool) {
	var at time.Time
	for _, url := range r.order {
		m := r.members[url]
		if m.free <= 0 {
			continue
		}
		if t := m.holdUntil; t.After(now) && (at.IsZero() || t.Before(at)) {
			at = t
		}
		if t, ok := m.br.retryAt(); ok && t.After(now) && (at.IsZero() || t.Before(at)) {
			at = t
		}
	}
	return at, !at.IsZero()
}

// scheduleWakeLocked arms the registry's timed wake for the next hold
// or cooldown expiry, replacing any earlier timer. Caller holds mu.
func (r *Registry) scheduleWakeLocked(now time.Time) {
	at, ok := r.nextEventLocked(now)
	if !ok {
		return
	}
	if r.wake != nil {
		r.wake.Stop()
	}
	r.wake = time.AfterFunc(at.Sub(now)+time.Millisecond, r.cond.Broadcast)
}

// acquire blocks until a worker other than avoid has a free slot and an
// admitting breaker, or ctx is cancelled, or the membership is empty
// (ErrNoWorkers — nothing to wait for). When only avoid is available
// and the fleet has no other member, its slot is taken anyway: one
// flaky worker must not deadlock a one-worker fleet. The caller must
// arrange wakeAll on ctx cancellation (Run registers context.AfterFunc
// once for the whole run).
func (r *Registry) acquire(ctx context.Context, avoid string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		if len(r.order) == 0 {
			return "", ErrNoWorkers
		}
		now := r.now()
		if url, probe, ok := r.pickLocked(avoid, nil, now); ok {
			// Retry-elsewhere must mean elsewhere: when the only usable
			// capacity is on the worker that just failed this shard and the
			// fleet has alternatives, wait for one of them instead of
			// burning the retry budget on the same worker. Every busy
			// slot's dispatch ends in a release (and a Broadcast), and
			// breaker cooldowns and holds arm a timed wake, so the wait is
			// live.
			if url == avoid && len(r.order) > 1 {
				r.scheduleWakeLocked(now)
				r.cond.Wait()
				continue
			}
			r.takeLocked(url, probe)
			return url, nil
		}
		r.scheduleWakeLocked(now)
		r.cond.Wait()
	}
}

// tryAcquire takes a slot on any worker not in exclude without blocking
// — the speculation path, which only runs on genuinely idle capacity.
func (r *Registry) tryAcquire(exclude map[string]bool) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	url, probe, ok := r.pickLocked("", exclude, r.now())
	if !ok {
		return "", false
	}
	r.takeLocked(url, probe)
	return url, true
}

// takeLocked consumes a slot on url (and flips its breaker to half-open
// when the dispatch is the probe). Caller holds mu.
func (r *Registry) takeLocked(url string, probe bool) {
	m := r.members[url]
	m.free--
	m.inflight++
	m.dispatches++
	r.totals.Dispatches++
	if probe {
		m.br.probeAt()
		r.logf("fleet: worker %s breaker half-open; probing with the next dispatch", url)
	}
}

// done ends a dispatch to url that took elapsed: the slot returns (a
// worker removed, or removed and rejoined, while the dispatch was in
// flight keeps consistent books through clamping), the outcome enters the
// worker's books, and waiters wake. A success re-closes the breaker and
// folds a shards/sec sample into the throughput estimate. A cancellation
// — the run interrupted, a speculation loser — says nothing about the
// worker. A Retry-After deferral holds exactly that worker for the hinted
// time (holds extend, never shorten), and a PermanentError is about the
// request, not the worker: neither trips the breaker. Every other failure
// — transport errors, 5xx, invalid responses, attempt timeouts (a hung
// worker) — does.
func (r *Registry) done(url string, elapsed time.Duration, err error) {
	var ra *RetryAfterError
	var perm *PermanentError
	var opened bool
	r.mu.Lock()
	if m, ok := r.members[url]; ok {
		m.inflight = max(m.inflight-1, 0)
		m.free = min(m.free+1, r.cfg.perWorker())
		switch {
		case err == nil:
			m.completions++
			sample := 1 / max(elapsed.Seconds(), 1e-9)
			if m.completions == 1 {
				m.ewma = sample
			} else {
				m.ewma = DefaultEWMAAlpha*sample + (1-DefaultEWMAAlpha)*m.ewma
			}
			m.br.recordSuccess()
			m.lastErr = ""
		case errors.Is(err, context.Canceled):
		default:
			m.failures++
			m.lastErr = err.Error()
			if errors.As(err, &ra) {
				if until := r.now().Add(ra.After); until.After(m.holdUntil) {
					m.holdUntil = until
				}
			} else if !errors.As(err, &perm) {
				opened = r.tripLocked(m)
			}
		}
	}
	r.mu.Unlock()
	if opened {
		r.logf("fleet: worker %s breaker opened (%v)", url, err)
	}
	r.cond.Broadcast()
}

// tripLocked feeds a failed dispatch or probe to m's breaker and reports
// whether that opened it. Caller holds mu.
func (r *Registry) tripLocked(m *member) bool {
	was := m.br.state
	m.br.recordFailure(r.now())
	return was != BreakerOpen && m.br.state == BreakerOpen
}

// tally adds d's retries, speculations, quarantines and deferrals to the
// fleet totals (dispatches are counted as their slots are taken). A nil
// registry (shards run in process) counts nothing.
func (r *Registry) tally(d Totals) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t := &r.totals
	t.Retries += d.Retries
	t.Speculations += d.Speculations
	t.Quarantines += d.Quarantines
	t.Deferrals += d.Deferrals
}

// Totals reports the fleet's cumulative scheduling counts.
func (r *Registry) Totals() Totals {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.totals
}

// wakeAll unblocks every acquire waiter (used on run cancellation).
func (r *Registry) wakeAll() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cond.Broadcast()
}

// Probe runs one synchronous health round: every member's /readyz is
// fetched (concurrently, each under the probe timeout) and each outcome
// is fed to the worker's breaker exactly like a dispatch outcome — a 200
// re-closes it, a failure counts toward opening it — so a worker that
// stops answering is shed for the breaker cooldown without a dispatch
// having to fail first.
func (r *Registry) Probe(ctx context.Context, client *http.Client) {
	if client == nil {
		client = http.DefaultClient
	}
	urls := r.URLs()
	type verdict struct {
		url string
		err error
	}
	verdicts := make(chan verdict, len(urls))
	for _, url := range urls {
		go func(url string) {
			verdicts <- verdict{url, r.probeOne(ctx, client, url)}
		}(url)
	}
	for range urls {
		v := <-verdicts
		r.applyProbe(v.url, v.err)
	}
}

// probeOne fetches one worker's /readyz under the probe timeout.
func (r *Registry) probeOne(ctx context.Context, client *http.Client, url string) error {
	pctx, cancel := context.WithTimeout(ctx, DefaultProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: worker %s probe answered %d", url, resp.StatusCode)
	}
	return nil
}

// applyProbe feeds one probe outcome to the member's breaker.
func (r *Registry) applyProbe(url string, err error) {
	r.mu.Lock()
	m, ok := r.members[url]
	var closed, opened bool
	if ok {
		m.lastProbe = ""
		if err == nil {
			closed = m.br.state != BreakerClosed
			m.br.recordSuccess()
		} else {
			m.lastProbe = err.Error()
			opened = r.tripLocked(m)
		}
	}
	r.mu.Unlock()
	if closed {
		r.logf("fleet: worker %s answered its probe; breaker closed", url)
		r.cond.Broadcast()
	}
	if opened {
		r.logf("fleet: worker %s breaker opened (%v)", url, err)
		r.cond.Broadcast()
	}
}

// StartProbing probes the membership once immediately and then every
// interval until ctx is cancelled. client nil means http.DefaultClient.
func (r *Registry) StartProbing(ctx context.Context, interval time.Duration, client *http.Client) {
	go func() {
		r.Probe(ctx, client)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				r.Probe(ctx, client)
			}
		}
	}()
}

// Snapshot reports every member's status in join order — the per-worker
// rows of /stats.
func (r *Registry) Snapshot() []WorkerStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]WorkerStatus, 0, len(r.order))
	for _, url := range r.order {
		m := r.members[url]
		out = append(out, WorkerStatus{
			URL:            m.url,
			Healthy:        m.br.state == BreakerClosed,
			Breaker:        m.br.state.String(),
			Held:           now.Before(m.holdUntil),
			InFlight:       m.inflight,
			Dispatches:     m.dispatches,
			Failures:       m.failures,
			Completions:    m.completions,
			ShardsPerSec:   m.ewma,
			LastError:      m.lastErr,
			LastProbeError: m.lastProbe,
		})
	}
	return out
}

// Gauges reports the fleet-level health counts (the
// /stats.fleet_workers scalars) over a Snapshot.
func (r *Registry) Gauges() Gauges {
	g := Gauges{}
	for _, ws := range r.Snapshot() {
		g.Total++
		switch ws.Breaker {
		case BreakerOpen.String():
			g.Open++
		case BreakerHalfOpen.String():
			g.HalfOpen++
		default:
			g.Healthy++
		}
		if ws.Held {
			g.Held++
		}
	}
	return g
}
