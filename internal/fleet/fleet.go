// Package fleet schedules every shard of a sharded bound derivation to
// completion — the reliability layer over the repo's hottest
// long-running path. Where internal/shard gives one shard a
// checkpointed, resumable Run, this package gives the whole plan one
// scheduler with two kinds of attempt:
//
//   - In process (no worker URLs and an empty registry): the attempt
//     calls shard.Run directly on the shard's spool slot, resuming its
//     last checkpoint, so neither retries nor interrupts repeat completed
//     blocks. Shards run concurrently up to min(shard count, GOMAXPROCS).
//   - Over HTTP: the attempt dispatches the slice to a peer worker — the
//     coordinator half of the wire protocol in docs/fleet-protocol.md; the
//     worker half is the POST /v1/shard endpoint internal/serve mounts.
//
// One per-shard loop owns the policy around either kind:
//
//   - Spool-slot pre-check. A complete compatible partial already in the
//     slot is a previous run's result, honored without an attempt; a
//     corrupt or foreign one is quarantined (shard.Quarantine) so the
//     slot can be re-derived.
//   - Bounded retries with backoff. A failed attempt is retried with
//     exponential backoff and deterministic jitter (BackoffDelay), up to
//     a budget. Deterministic failures are not retried: worker 4xx
//     rejections (the same spec would fail the same way everywhere), an
//     emptied membership, and a cancellation that came from inside the
//     derivation rather than from the run or the attempt deadline.
//   - Per-attempt deadlines. An attempt that exceeds Options.
//     AttemptTimeout is abandoned and retried; its checkpoint (local, or
//     the worker's) survives, so the retry resumes rather than restarts.
//   - Interrupts. Cancelling the run's context stops every attempt
//     within about one traversal chunk with checkpoints flushed; the
//     report is marked interrupted and rerunning resumes.
//   - The final merge: exact (shard.MergeFiles, byte-identical to a
//     single-process derivation) or — only under Options.AllowPartial —
//     a degraded merge annotated with its covered index fraction.
//
// The HTTP attempt adds the fleet machinery: per-worker dispatch slots,
// retry on a different worker, validation of every response against the
// locally compiled manifest (an invalid response is quarantined, never
// spooled), speculative re-execution of stragglers, Retry-After holds,
// and the Registry's health probes, circuit breakers and throughput-
// ranked allocation (docs/fleet-protocol.md "Health, membership &
// breakers").
//
// Results land in the spool layout ShardPath names under Options.Dir,
// so a killed run resumes by rerunning — or via serve.ResumeOrphans /
// shardmerge -resume.
//
// The same spirit as the restartable search harnesses around
// Timeloop-style mappers (Parashar et al., ISPASS 2019) and GAMMA-style
// genetic search (Kao & Krishna, ICCAD 2020): the evaluator inside is
// deterministic and oblivious, the harness around it owns failure.
package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pareto"
	"repro/internal/shard"
)

// Defaults for the scheduling policy; tests shorten them via Options.
const (
	DefaultMaxRetries  = 3
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second

	// DefaultPerWorker is the per-worker concurrent-dispatch cap when
	// Options.PerWorker is unset.
	DefaultPerWorker = 2

	// maxShardDeferrals bounds how many Retry-After deferrals one shard
	// absorbs without burning retry budget; past it a deferral is treated
	// as an ordinary retryable failure, so a fleet that politely defers
	// forever still terminates.
	maxShardDeferrals = 64
)

// ErrNoWorkers is returned (wrapped) when a dispatch finds the fleet
// membership empty — every worker removed at runtime. Shards fail with
// it immediately rather than waiting for a join that may never come.
var ErrNoWorkers = errors.New("fleet: no workers in membership")

// ErrRetriesExhausted marks (wrapped, alongside the last attempt
// error) a shard that spent its whole retry budget — the "every
// remaining worker is dead or lying" outcome. errors.Is(err,
// ErrRetriesExhausted) holds for Run's error when any shard failed this
// way and AllowPartial did not promote the run to a degraded merge.
var ErrRetriesExhausted = errors.New("fleet: retry budget exhausted")

// errNotRetryable marks (wrapped) an attempt failure retrying cannot
// fix, beyond the HTTP-level PermanentError and ErrNoWorkers.
var errNotRetryable = errors.New("not retryable")

// ShardRequest is the body of POST /v1/shard — the coordinator→worker
// half of the fleet wire protocol (docs/fleet-protocol.md). The response
// to a 200 is the raw partial-frontier file defined in
// docs/shard-format.md. The type lives here so the coordinator and the
// serve worker endpoint share one schema; both sides reject unknown
// fields so a schema skew degrades to a 400, never to a silently
// different derivation.
type ShardRequest struct {
	// Spec is the canonical encoding of a materialized workload.Spec
	// (Spec.Encode) — the compiled job's shard.Job.Spec. The worker
	// decodes and compiles it; an unknown kind is a structured 400.
	Spec json.RawMessage `json:"spec"`

	// ShardIndex (0-based) of ShardCount selects the plan slice the
	// worker derives.
	ShardIndex int `json:"shard_index"`
	ShardCount int `json:"shard_count"`

	// CheckpointEvery overrides the worker-side checkpoint stride
	// (shard.RunOptions semantics; 0 means the worker's default).
	CheckpointEvery int64 `json:"checkpoint_every,omitempty"`

	// TimeoutMS bounds the worker-side wall time of the shard run. Zero
	// means the worker's default; values above its maximum clamp.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// MaxFormatVersion is the newest partial-frontier format version the
	// coordinator can read (version negotiation against
	// docs/shard-format.md). Zero means "any"; a worker that only writes
	// newer formats answers 400 unsupported_version instead of bytes the
	// coordinator would have to quarantine.
	MaxFormatVersion int `json:"max_format_version,omitempty"`
}

// Options tunes a run. Dir is required; the rest have working zero
// values. Without Workers and with a nil or empty Registry every shard
// runs in process.
type Options struct {
	// Dir is the spool directory: shard k of n lives at ShardPath(Dir,
	// k, n) — the checkpoint target of an in-process attempt, the landing
	// slot of a dispatched one, and the resume source of a rerun.
	Dir string

	// CheckpointEvery is the number of enumeration indices per
	// checkpoint flush within each shard (shard.RunOptions semantics),
	// forwarded to workers on dispatch.
	CheckpointEvery int64

	// MaxRetries is the per-shard retry budget beyond the first attempt.
	// 0 means DefaultMaxRetries; negative means no retries.
	MaxRetries int

	// BaseBackoff and MaxBackoff bound the exponential backoff between a
	// shard's attempts: attempt k waits about BaseBackoff·2^k, capped at
	// MaxBackoff, with ±50% deterministic jitter. Zero values pick the
	// defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// AttemptTimeout, when positive, bounds each attempt of each shard;
	// an attempt that exceeds it is cancelled and retried from the last
	// checkpoint (progress is monotonic across attempts, so a too-slow
	// shard still converges).
	AttemptTimeout time.Duration

	// AllowPartial permits a degraded merge when shards fail
	// permanently: the result carries the covered index fraction instead
	// of being refused. Without it, any failed shard fails the run.
	AllowPartial bool

	// Logf, when non-nil, receives human-readable progress and failure
	// lines (retries, quarantines, speculation, interrupts).
	Logf func(format string, args ...any)

	// FS is the filesystem seam of the spool (nil = OS): in-process
	// shard runs, quarantines and spooled responses go through it; the
	// robustness suite injects faults here.
	FS shard.FS

	// OnCheckpoint, when non-nil, observes every successful checkpoint
	// flush of every in-process shard.
	OnCheckpoint func(shard.Manifest)

	// Workers are base URLs of peer workers (each serving POST
	// /v1/shard), e.g. "http://host:8080". Any worker here, or a
	// non-empty Registry, makes every attempt of the run a dispatch.
	Workers []string

	// PerWorker caps concurrent dispatches per worker of a run-owned
	// registry; <= 0 means DefaultPerWorker.
	PerWorker int

	// SpeculateAfter, when positive, launches a duplicate dispatch of a
	// still-running slice on an idle different worker after this delay;
	// the first valid response wins. Zero disables speculation.
	SpeculateAfter time.Duration

	// Client is the HTTP client dispatches use; nil means
	// http.DefaultClient. Injecting a client with a scripted
	// http.RoundTripper is the fault-injection seam the fleet and chaos
	// tests use.
	Client *http.Client

	// Registry, when non-nil, is an externally owned membership the run
	// dispatches through: health, breaker, hold and throughput state
	// persist across runs (serve shares one Registry per server), and
	// runtime Add/Remove/SetWorkers calls steer this run live. Workers
	// listed in Options.Workers are joined to it. When nil, a dispatching
	// run builds a private registry from Workers.
	Registry *Registry

	// ProbeInterval, when positive and the run owns its registry (no
	// Options.Registry), probes each member's /readyz on this period for
	// the duration of the run. An externally owned registry does its own
	// probing (Registry.StartProbing).
	ProbeInterval time.Duration

	// Breaker tunes the per-worker circuit breakers of a run-owned
	// registry; ignored when Options.Registry is set.
	Breaker BreakerConfig
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

func (o *Options) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return http.DefaultClient
}

func (o *Options) maxRetries() int {
	switch {
	case o.MaxRetries == 0:
		return DefaultMaxRetries
	case o.MaxRetries < 0:
		return 0
	}
	return o.MaxRetries
}

func (o *Options) backoffBounds() (base, max time.Duration) {
	base, max = o.BaseBackoff, o.MaxBackoff
	if base <= 0 {
		base = DefaultBaseBackoff
	}
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	if max < base {
		max = base
	}
	return base, max
}

// ShardState reports what the scheduler did for one shard.
type ShardState struct {
	Plan shard.Plan
	Path string // partial-frontier file in the spool

	// Attempts counts in-process shard.Run invocations (1 = the first
	// try succeeded).
	Attempts int

	// Dispatches counts HTTP attempts launched for this shard, including
	// speculative duplicates; Speculated counts just the duplicates.
	Dispatches int
	Speculated int

	// Deferred counts Retry-After deferrals this shard absorbed (held
	// the worker, retried elsewhere, no retry budget spent).
	Deferred int

	// Quarantined lists files set aside for inspection: corrupt or
	// foreign spool partials and invalid worker responses.
	Quarantined []string

	// Resumed reports the shard was already complete in the spool — a
	// previous run's work honored without any attempt.
	Resumed bool

	// Worker is the URL whose response won (empty when in process,
	// Resumed, or failed).
	Worker string

	Completed bool

	// Evaluated is the work this run did for the shard: in process, the
	// points evaluated across all attempts; over HTTP, the slice's index
	// count once a dispatch wins (the coordinator does not observe
	// worker-side evaluation counts; coverage is what it can vouch for).
	Evaluated int64

	// Err is the terminal error when !Completed (nil if interrupted
	// cleanly; the shard stays resumable either way).
	Err error
}

// Report is the outcome of a run: per-shard states, dispatch totals, and
// exactly one of Curve (exact merge) or Degraded (annotated best-effort
// merge under AllowPartial); both nil when the run was interrupted or
// failed.
type Report struct {
	Shards      []ShardState
	Curve       *pareto.Curve
	Degraded    *shard.Degraded
	Interrupted bool

	// Dispatches, Retries, Speculations, Quarantines and Deferrals
	// aggregate the per-shard counts of a dispatching run — the numbers
	// serve feeds into /stats; all zero when the shards ran in process.
	Dispatches   int64
	Retries      int64
	Speculations int64
	Quarantines  int64
	Deferrals    int64

	// Workers is the per-worker health, breaker and throughput snapshot
	// at the end of a dispatching run (Registry.Snapshot).
	Workers []WorkerStatus
}

// ShardPath names shard k (0-based) of n's partial-frontier file inside
// dir — the spool layout the scheduler, the worker endpoint and a human
// resuming by hand all use.
func ShardPath(dir string, k, n int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", k+1, n))
}

// coord is one Run invocation's shared state.
type coord struct {
	n     int
	mkJob func(shard.Plan) (shard.Job, error)
	opts  *Options
	reg   *Registry // nil when shards run in process

	dispatches   atomic.Int64
	retries      atomic.Int64
	speculations atomic.Int64
	quarantines  atomic.Int64
	deferrals    atomic.Int64
}

// record feeds one dispatch outcome into the registry's health books.
// It runs in the dispatch goroutine so speculative losers' outcomes are
// recorded too.
func (c *coord) record(worker string, elapsed time.Duration, err error) {
	var ra *RetryAfterError
	var perm *PermanentError
	switch {
	case err == nil:
		c.reg.success(worker, elapsed)
	case errors.Is(err, context.Canceled):
		// A cancelled dispatch — the run interrupted, or a speculation
		// loser — says nothing about the worker's health.
	case errors.As(err, &ra):
		// A polite deferral holds exactly that worker for exactly the
		// hinted duration; it never trips the breaker.
		c.reg.hold(worker, ra.After)
		c.reg.failure(worker, false, err.Error())
	case errors.As(err, &perm):
		// Deterministic spec rejections are about the request, not the
		// worker.
		c.reg.failure(worker, false, err.Error())
	default:
		// Transport errors, 5xx, invalid responses, and attempt timeouts
		// (context.DeadlineExceeded — a hung worker) trip the breaker.
		c.reg.failure(worker, true, err.Error())
	}
}

// Run schedules an n-shard derivation to completion and merges the
// result. mkJob builds the job for one shard of the plan; all jobs must
// describe the same derivation (same workload and options digests),
// which every spooled partial and the final merge re-verify. Attempts
// run in process unless Options names workers or a non-empty Registry,
// in which case each is a dispatch shipping the job's embedded
// canonical spec (shard.Job.Spec) to a worker.
//
// Shards already complete in the spool are honored without an attempt,
// so rerunning after a kill resumes instead of restarting. On success
// the report carries the exact merged curve, byte-identical to a
// single-process derivation; permanent shard failures fail the run
// unless Options.AllowPartial promotes the outcome to a degraded merge.
// A cancelled run flushes its checkpoints, marks the report
// interrupted, and returns ctx's error.
func Run(ctx context.Context, n int, mkJob func(shard.Plan) (shard.Job, error), opts Options) (*Report, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: shard count %d, want >= 1", n)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: no spool directory")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &coord{n: n, mkJob: mkJob, opts: &opts}
	report := &Report{Shards: make([]ShardState, n)}
	// Each in-process shard's traversal already parallelizes, so more
	// concurrent shards than CPUs rarely helps; dispatches are bounded by
	// the registry's per-worker slots instead.
	parallel := min(n, runtime.GOMAXPROCS(0))
	if len(opts.Workers) > 0 || (opts.Registry != nil && opts.Registry.Len() > 0) {
		c.reg = opts.Registry
		if c.reg == nil {
			c.reg = NewRegistry(opts.Workers, RegistryConfig{
				PerWorker: opts.PerWorker,
				Breaker:   opts.Breaker,
				Logf:      opts.Logf,
			})
			if opts.ProbeInterval > 0 {
				pctx, pcancel := context.WithCancel(ctx)
				defer pcancel()
				c.reg.StartProbing(pctx, opts.ProbeInterval, opts.client())
			}
		} else {
			for _, w := range opts.Workers {
				c.reg.Add(w)
			}
		}
		// Wake registry waiters when the run is cancelled, so shards
		// blocked on a slot observe ctx promptly.
		stopWake := context.AfterFunc(ctx, c.reg.wakeAll)
		defer stopWake()
		parallel = n
	}

	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			report.Shards[k] = c.runShard(ctx, k)
		}(k)
	}
	wg.Wait()
	if c.reg != nil {
		report.Dispatches = c.dispatches.Load()
		report.Retries = c.retries.Load()
		report.Speculations = c.speculations.Load()
		report.Quarantines = c.quarantines.Load()
		report.Deferrals = c.deferrals.Load()
		report.Workers = c.reg.Snapshot()
	}

	if err := ctx.Err(); err != nil {
		report.Interrupted = true
		opts.logf("fleet: interrupted; checkpoints flushed and completed partials spooled, rerun to resume")
		return report, err
	}

	var failed []error
	for k := range report.Shards {
		if st := &report.Shards[k]; !st.Completed {
			failed = append(failed, st.Err)
		}
	}
	if len(failed) == 0 {
		paths := make([]string, n)
		for k := range paths {
			paths[k] = report.Shards[k].Path
		}
		curve, err := shard.MergeFiles(paths...)
		if err != nil {
			return report, fmt.Errorf("fleet: final merge: %w", err)
		}
		report.Curve = curve
		return report, nil
	}
	if !opts.AllowPartial {
		// Wrapping the joined shard errors keeps the sentinels reachable:
		// errors.Is(err, ErrRetriesExhausted) and errors.Is(err,
		// ErrNoWorkers) hold at the run level.
		return report, fmt.Errorf("fleet: %d of %d shards failed permanently (rerun to retry, or use -allow-partial for an annotated degraded merge): %w",
			len(failed), n, errors.Join(failed...))
	}
	degraded, err := mergeDegraded(report, &opts)
	if err != nil {
		return report, err
	}
	report.Degraded = degraded
	opts.logf("fleet: degraded merge covers %d of %d indices (%.2f%%); missing shards %v, incomplete %v",
		degraded.CoveredIndices, degraded.Items, 100*degraded.CoveredFraction,
		degraded.MissingShards, degraded.IncompleteShards)
	return report, nil
}

// mergeDegraded merges every readable partial the run left in the spool.
func mergeDegraded(report *Report, opts *Options) (*shard.Degraded, error) {
	var partials []*shard.Partial
	for k := range report.Shards {
		st := &report.Shards[k]
		p, err := shard.ReadPartial(st.Path)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				opts.logf("fleet: degraded merge skips %s: %v", st.Path, err)
			}
			continue
		}
		partials = append(partials, p)
	}
	if len(partials) == 0 {
		return nil, fmt.Errorf("fleet: degraded merge: no readable partial frontiers")
	}
	sort.Slice(partials, func(i, j int) bool {
		return partials[i].Manifest.ShardIndex < partials[j].Manifest.ShardIndex
	})
	return shard.MergeDegraded(partials...)
}

// runShard drives one shard through attempts, backoff and quarantine
// until it completes, exhausts its retry budget, fails permanently, or
// the run context is cancelled.
func (c *coord) runShard(ctx context.Context, k int) ShardState {
	plan := shard.Plan{Index: k, Count: c.n}
	st := ShardState{Plan: plan, Path: ShardPath(c.opts.Dir, k, c.n)}
	job, err := c.mkJob(plan)
	if err != nil {
		st.Err = fmt.Errorf("fleet: building job for shard %s: %w", plan, err)
		return st
	}
	expected := job.Manifest()

	// Honor spooled work first: a complete compatible partial is a
	// previous run's result; a corrupt or foreign one is quarantined so
	// this run's result can land cleanly. An incomplete one of ours is a
	// checkpoint: the in-process attempt resumes it, a winning dispatch
	// replaces it.
	switch prev, err := shard.ReadPartial(st.Path); {
	case err == nil:
		if cerr := expected.CompatibleWith(&prev.Manifest); cerr != nil || prev.Manifest.ShardIndex != plan.Index {
			if !c.quarantine(&st, "foreign spool partial") {
				return st
			}
		} else if prev.Manifest.Complete() {
			st.Completed, st.Resumed = true, true
			return st
		}
	case errors.Is(err, fs.ErrNotExist):
	case errors.Is(err, shard.ErrCorruptPartial):
		if !c.quarantine(&st, "corrupt spool partial") {
			return st
		}
	default:
		st.Err = fmt.Errorf("fleet: inspecting spool partial %s: %w", st.Path, err)
		return st
	}

	base, maxb := c.opts.backoffBounds()
	// Per-shard deterministic jitter stream: reruns reproduce the same
	// schedule, and shards do not thundering-herd.
	rng := rand.New(rand.NewSource(1 + int64(k)))
	retries := c.opts.maxRetries()

	avoid := ""
	for attempt := 0; ; {
		var aerr error
		worker := ""
		if c.reg == nil {
			aerr = c.runLocal(ctx, &st, job)
		} else {
			worker, aerr = c.runRemote(ctx, &st, &job, &expected, avoid)
		}
		if aerr == nil {
			st.Completed = true
			return st
		}
		var perm *PermanentError
		var ra *RetryAfterError
		switch {
		case ctx.Err() != nil:
			// Run cancellation (a signal, a server drain): not a shard
			// failure — checkpoints are flushed and resumable.
			st.Err = ctx.Err()
			return st
		case errors.Is(aerr, ErrNoWorkers), errors.As(aerr, &perm), errors.Is(aerr, errNotRetryable):
			// An emptied membership, a deterministic worker rejection, or
			// a cause outside this shard's control: retrying cannot help.
			st.Err = fmt.Errorf("fleet: shard %s failed permanently: %w", plan, aerr)
			return st
		case errors.As(aerr, &ra) && st.Deferred < maxShardDeferrals:
			// The deferral already held the worker (coord.record); retry
			// elsewhere immediately without burning budget or backing off.
			st.Deferred++
			c.deferrals.Add(1)
			c.opts.logf("fleet: shard %s deferred by %s for %v; retrying elsewhere", plan, ra.Worker, ra.After)
			avoid = ""
			continue
		case errors.Is(aerr, shard.ErrCorruptPartial), errors.Is(aerr, shard.ErrForeignPartial):
			// The checkpoint itself went bad under the attempt: set it
			// aside and re-derive the slice fresh.
			if !c.quarantine(&st, "corrupt checkpoint") {
				return st
			}
		}
		if attempt >= retries {
			st.Err = fmt.Errorf("fleet: shard %s failed after %d attempts: %w: %w", plan, attempt+1, ErrRetriesExhausted, aerr)
			return st
		}
		avoid = worker
		c.retries.Add(1)
		delay := BackoffDelay(base, maxb, attempt, rng)
		attempt++
		c.opts.logf("fleet: shard %s attempt failed (%v); retrying in %v", plan, aerr, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			st.Err = ctx.Err()
			return st
		}
	}
}

// runLocal is the in-process attempt: shard.Run straight on the spool
// slot, resuming its last checkpoint. The file it checkpoints into is
// the shard's result, so a completed run needs no second write.
func (c *coord) runLocal(ctx context.Context, st *ShardState, job shard.Job) error {
	actx := ctx
	if c.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, c.opts.AttemptTimeout)
		defer cancel()
	}
	_, rs, err := shard.Run(actx, job, shard.RunOptions{
		Path:            st.Path,
		CheckpointEvery: c.opts.CheckpointEvery,
		OnCheckpoint:    c.opts.OnCheckpoint,
		FS:              c.opts.FS,
	})
	st.Attempts++
	st.Evaluated += rs.Evaluated
	if err != nil && actx.Err() == nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		// A cancellation that is neither the run's nor this attempt's
		// deadline came from inside the derivation (e.g. a server request
		// whose waiters all left): external intent, not a transient fault.
		return fmt.Errorf("cancelled inside the derivation (%w): %w", errNotRetryable, err)
	}
	return err
}

// quarantine renames the shard's spool slot aside to the first free
// "<path>.corrupt[.N]" name, recording it in the shard state. A slot
// that cannot be cleared fails the shard: deriving over it would destroy
// the evidence.
func (c *coord) quarantine(st *ShardState, why string) bool {
	qpath, err := shard.Quarantine(c.opts.FS, st.Path, st.Path+".corrupt")
	if err != nil {
		st.Err = fmt.Errorf("fleet: shard %s: cannot quarantine %s %s: %w", st.Plan, why, st.Path, err)
		return false
	}
	st.Quarantined = append(st.Quarantined, qpath)
	c.quarantines.Add(1)
	c.opts.logf("fleet: shard %s: quarantined %s to %s, re-deriving", st.Plan, why, qpath)
	return true
}

// BackoffDelay computes attempt k's wait: base·2^k capped at max, with
// ±50% jitter drawn from the shard's deterministic stream rng.
func BackoffDelay(base, max time.Duration, attempt int, rng *rand.Rand) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	// Jitter uniformly in [d/2, 3d/2), never below a millisecond floor
	// so tests with nanosecond bases still sleep a bounded, nonzero time.
	j := d/2 + time.Duration(rng.Int63n(int64(d)+1))
	if j < time.Millisecond {
		j = time.Millisecond
	}
	return j
}
