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
//   - Slot claim. Before every attempt the loop claims the shard's spool
//     slot (shard.Claim): a complete compatible partial is a previous
//     run's result, honored without an attempt; a corrupt or foreign one
//     is quarantined so the slot can be re-derived.
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
//   - The final merge: the spooled partials are read once and merged
//     once (shard.MergeDegraded). A complete cover is the exact curve,
//     byte-identical to a single-process derivation; an incomplete one
//     is accepted only under Options.AllowPartial, as a degraded curve
//     annotated with its covered index fraction.
//
// The HTTP attempt adds the fleet machinery: per-worker dispatch slots,
// retry on a different worker, validation of every response against the
// locally compiled manifest (an invalid response is quarantined, never
// spooled), speculative re-execution of stragglers, Retry-After holds,
// and the Registry's circuit breakers (fed by dispatch outcomes and
// health probes alike), throughput-ranked allocation and fleet totals
// (docs/fleet-protocol.md "Health, membership & breakers").
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
	"path/filepath"
	"runtime"
	"sync"
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
	// RegistryConfig.PerWorker is unset.
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
// values. With a nil or empty Registry every shard runs in process.
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

	// FS is the filesystem seam of the spool (nil = OS): the spool
	// directory, slot reads, in-process shard runs, quarantines, spooled
	// responses and the final merge all go through it; the robustness
	// suite injects faults here.
	FS shard.FS

	// OnCheckpoint, when non-nil, observes every successful checkpoint
	// flush of every in-process shard.
	OnCheckpoint func(shard.Manifest)

	// SpeculateAfter, when positive, launches a duplicate dispatch of a
	// still-running slice on an idle different worker after this delay;
	// the first valid response wins. Zero disables speculation.
	SpeculateAfter time.Duration

	// Client is the HTTP client dispatches use; nil means
	// http.DefaultClient. Injecting a client with a scripted
	// http.RoundTripper is the fault-injection seam the fleet and chaos
	// tests use.
	Client *http.Client

	// Registry is the worker membership the run dispatches through
	// (base URLs of peers serving POST /v1/shard). A non-empty Registry
	// makes every attempt of the run a dispatch. Its health, breaker,
	// hold and throughput state persist across runs (serve shares one
	// Registry per server), runtime Add/Remove/SetWorkers calls steer
	// this run live, and health probing is the owner's
	// (Registry.StartProbing).
	Registry *Registry
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

	// Attempts counts the attempts launched for this shard: in-process
	// shard.Run invocations, or HTTP dispatches including speculative
	// duplicates (1 = the first try succeeded). Speculated counts just
	// the duplicates.
	Attempts   int
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

// Report is the outcome of a run: per-shard states and the merged
// Curve. Degraded is set only when the merge covered part of the index
// space (possible only under AllowPartial); Curve is then its degraded
// union, with Curve.Degraded set. Both are nil when the run was
// interrupted or failed. Fleet totals and worker state live in the
// Registry (Totals, Snapshot).
type Report struct {
	Shards      []ShardState
	Curve       *pareto.Curve
	Degraded    *shard.Degraded
	Interrupted bool
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
}

// Run schedules an n-shard derivation to completion and merges the
// result. mkJob builds the job for one shard of the plan; all jobs must
// describe the same derivation (same workload and options digests),
// which every spooled partial and the final merge re-verify. Attempts
// run in process unless Options.Registry has members, in which case
// each is a dispatch shipping the job's embedded
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
	if opts.FS == nil {
		opts.FS = shard.OS()
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, err
	}
	c := &coord{n: n, mkJob: mkJob, opts: &opts}
	report := &Report{Shards: make([]ShardState, n)}
	// Each in-process shard's traversal already parallelizes, so more
	// concurrent shards than CPUs rarely helps; dispatches are bounded by
	// the registry's per-worker slots instead.
	parallel := min(n, runtime.GOMAXPROCS(0))
	if opts.Registry != nil && opts.Registry.Len() > 0 {
		c.reg = opts.Registry
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
	if len(failed) > 0 && !opts.AllowPartial {
		// Wrapping the joined shard errors keeps the sentinels reachable:
		// errors.Is(err, ErrRetriesExhausted) and errors.Is(err,
		// ErrNoWorkers) hold at the run level.
		return report, fmt.Errorf("fleet: %d of %d shards failed permanently (rerun to retry, or use -allow-partial for an annotated degraded merge): %w",
			len(failed), n, errors.Join(failed...))
	}
	merged, err := mergeSpool(report, &opts)
	if err == nil && merged.Curve.Degraded && !opts.AllowPartial {
		err = fmt.Errorf("spool covers %d of %d indices; missing shards %v, incomplete %v",
			merged.CoveredIndices, merged.Items, merged.MissingShards, merged.IncompleteShards)
	}
	if err != nil {
		return report, fmt.Errorf("fleet: final merge: %w", err)
	}
	report.Curve = merged.Curve
	if merged.Curve.Degraded {
		report.Degraded = merged
		opts.logf("fleet: degraded merge covers %d of %d indices (%.2f%%); missing shards %v, incomplete %v",
			merged.CoveredIndices, merged.Items, 100*merged.CoveredFraction,
			merged.MissingShards, merged.IncompleteShards)
	}
	return report, nil
}

// mergeSpool reads the run's spooled partials once and merges them with
// shard.MergeDegraded, the one merge of exact and degraded shard sets.
// An unreadable partial fails the merge unless AllowPartial, under which
// it is skipped and the merge covers what remains.
func mergeSpool(report *Report, opts *Options) (*shard.Degraded, error) {
	var partials []*shard.Partial
	for k := range report.Shards {
		p, err := shard.ReadPartial(opts.FS, report.Shards[k].Path)
		switch {
		case err == nil:
			partials = append(partials, p)
		case !opts.AllowPartial:
			return nil, err
		case !errors.Is(err, fs.ErrNotExist):
			opts.logf("fleet: degraded merge skips %s: %v", report.Shards[k].Path, err)
		}
	}
	if len(partials) == 0 {
		return nil, fmt.Errorf("no readable partial frontiers")
	}
	return shard.MergeDegraded(partials...)
}

// runShard drives one shard through slot claims, attempts and backoff
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

	base, maxb := c.opts.backoffBounds()
	// Per-shard deterministic jitter stream: reruns reproduce the same
	// schedule, and shards do not thundering-herd.
	rng := rand.New(rand.NewSource(1 + int64(k)))
	retries := c.opts.maxRetries()

	avoid := ""
	for attempt := 0; ; {
		// A complete partial in the slot is a previous run's result; an
		// incomplete one of ours is a checkpoint the in-process attempt
		// resumes and a winning dispatch replaces; anything else — found
		// in the spool or left by a failed attempt — is set aside. A slot
		// that cannot be read or cleared is retried like a failed attempt.
		prev, qpath, aerr := shard.Claim(c.opts.FS, st.Path, &expected)
		if qpath != "" {
			st.Quarantined = append(st.Quarantined, qpath)
			c.reg.tally(Totals{Quarantines: 1})
			c.opts.logf("fleet: shard %s: quarantined unusable partial to %s, re-deriving", plan, qpath)
		}
		worker := ""
		switch {
		case aerr != nil:
		case prev != nil && prev.Manifest.Complete():
			st.Completed, st.Resumed = true, st.Attempts == 0
			return st
		case c.reg == nil:
			aerr = c.runLocal(ctx, &st, job)
		default:
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
			// The deferral already held the worker (Registry.done); retry
			// elsewhere immediately without burning budget or backing off.
			st.Deferred++
			c.reg.tally(Totals{Deferrals: 1})
			c.opts.logf("fleet: shard %s deferred by %s for %v; retrying elsewhere", plan, ra.Worker, ra.After)
			avoid = ""
			continue
		}
		if attempt >= retries {
			st.Err = fmt.Errorf("fleet: shard %s failed after %d attempts: %w: %w", plan, attempt+1, ErrRetriesExhausted, aerr)
			return st
		}
		avoid = worker
		c.reg.tally(Totals{Retries: 1})
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
