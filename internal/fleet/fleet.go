// Package fleet distributes a sharded bound derivation across worker
// processes over HTTP — the step from "one big machine" to "fleet". It
// is the coordinator half of the wire protocol in docs/fleet-protocol.md:
// the worker half is the POST /v1/shard endpoint internal/serve mounts.
//
// The coordinator decomposes a compiled workload.Spec into the same
// deterministic shard plan a single process would use (shard.Plan over
// the flat enumeration space), dispatches each slice to a peer worker,
// and owns the supervise-style reliability policy around the dispatches:
//
//   - Per-worker parallelism caps. Each worker URL holds a fixed number
//     of dispatch slots; a shard waits for a free slot anywhere in the
//     fleet rather than overloading one worker.
//   - Bounded retries with backoff. A failed dispatch (network error,
//     worker 5xx/429/503, invalid response) is retried on another worker
//     with exponential backoff and deterministic jitter, up to a budget.
//     Deterministic rejections (worker 4xx) are not retried: the same
//     spec would fail the same way everywhere.
//   - Per-attempt deadlines. A dispatch that exceeds Options.
//     AttemptTimeout is abandoned and retried; the worker's checkpoint
//     survives, so the retry resumes rather than restarts server-side.
//   - Quarantine of invalid responses. A response that is not a
//     structurally valid, complete, digest-compatible partial frontier
//     is written aside (never to the shard's slot) and the dispatch
//     retried elsewhere — a byzantine or torn response can cost time,
//     never correctness.
//   - Speculative re-execution. When a dispatch outlives
//     Options.SpeculateAfter and an idle slot exists on a different
//     worker, the slice is launched there too; the first valid response
//     wins and the loser is cancelled. Duplicates are discarded after
//     digest validation, so speculation never double-counts.
//   - Fleet health and membership. The Registry tracks each worker's
//     probed health (/readyz), a per-worker circuit breaker that opens
//     on consecutive failures (or a windowed error rate) and sheds load
//     until a half-open probe dispatch succeeds, Retry-After holds, and
//     an EWMA shards/sec throughput estimate that allocation ranks by —
//     fast workers get proportionally more dispatches. Membership is
//     dynamic: workers added mid-run start receiving queued shards, and
//     an emptied membership fails pending shards with ErrNoWorkers
//     instead of hanging. See docs/fleet-protocol.md "Health, membership
//     & breakers".
//
// Completed partials land in the supervise spool layout
// (supervise.ShardPath under Options.Dir), written atomically by
// shard.WritePartial: a killed coordinator resumes by rerunning — or via
// serve.ResumeOrphans / shardmerge -resume — and the final merge reuses
// shard.MergeFiles / shard.MergeDegraded, so a fleet result is
// byte-identical to a single-process derivation (or the same annotated
// degraded envelope under Options.AllowPartial).
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
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/supervise"
	"repro/internal/workload"
)

// Defaults for the dispatch policy; tests shorten them via Options.
const (
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
// membership empty — every worker removed at runtime, or none
// configured. Shards fail with it immediately rather than waiting for a
// join that may never come.
var ErrNoWorkers = errors.New("fleet: no workers in membership")

// ErrRetriesExhausted marks (wrapped, alongside the last dispatch
// error) a shard that spent its whole retry budget without a valid
// response — the "every remaining worker is dead or lying" outcome.
// errors.Is(err, ErrRetriesExhausted) holds for Run's error when any
// shard failed this way and AllowPartial did not promote the run to a
// degraded merge.
var ErrRetriesExhausted = errors.New("fleet: retry budget exhausted")

// ShardRequest is the body of POST /v1/shard — the coordinator→worker
// half of the fleet wire protocol (docs/fleet-protocol.md). The response
// to a 200 is the raw partial-frontier file defined in
// docs/shard-format.md. The type lives here so the coordinator and the
// serve worker endpoint share one schema; both sides reject unknown
// fields so a schema skew degrades to a 400, never to a silently
// different derivation.
type ShardRequest struct {
	// Spec is the canonical encoding of a materialized workload.Spec
	// (Spec.Encode). The worker compiles it through the engine registry;
	// a kind absent from the registry is a structured 400.
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

// Options tunes a fleet run.
type Options struct {
	// Workers are the base URLs of the peer workers (each serving POST
	// /v1/shard), e.g. "http://host:8080". Required, at least one.
	Workers []string

	// Dir is the spool directory completed partial frontiers land in
	// (supervise.ShardPath layout). Required.
	Dir string

	// PerWorker caps concurrent dispatches per worker; <= 0 means
	// DefaultPerWorker.
	PerWorker int

	// MaxRetries is the per-shard retry budget beyond the first dispatch
	// (supervise.Options.MaxRetries semantics: 0 means
	// supervise.DefaultMaxRetries, negative means no retries).
	MaxRetries int

	// BaseBackoff and MaxBackoff bound the exponential backoff between a
	// shard's dispatches, with deterministic jitter seeded by JitterSeed
	// (supervise semantics; zero values pick the supervise defaults).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	JitterSeed  int64

	// AttemptTimeout, when positive, bounds each dispatch; a dispatch
	// that exceeds it is cancelled and retried. The worker's checkpoint
	// survives the cancellation, so retries resume server-side progress.
	AttemptTimeout time.Duration

	// SpeculateAfter, when positive, launches a duplicate dispatch of a
	// still-running slice on an idle different worker after this delay;
	// the first valid response wins. Zero disables speculation.
	SpeculateAfter time.Duration

	// CheckpointEvery is forwarded to workers as the checkpoint stride.
	CheckpointEvery int64

	// AllowPartial permits a degraded merge when shards fail permanently
	// (supervise semantics): the result carries its covered index
	// fraction instead of being refused.
	AllowPartial bool

	// Exec configures locally compiled jobs (digest/expectation
	// building only; no local derivation runs). Worker counts never
	// affect results, so the zero value is fine.
	Exec workload.Exec

	// Client is the HTTP client dispatches use; nil means
	// http.DefaultClient. Injecting a client with a scripted
	// http.RoundTripper is the fault-injection seam the fleet and chaos
	// tests use.
	Client *http.Client

	// Registry, when non-nil, is an externally owned membership the run
	// dispatches through: health, breaker, hold and throughput state
	// persist across runs (serve shares one Registry per server), and
	// runtime Add/Remove/SetWorkers calls steer this run live. Workers
	// listed in Options.Workers are joined to it. When nil, the run
	// builds a private registry from Workers.
	Registry *Registry

	// ProbeInterval, when positive and the run owns its registry (no
	// Options.Registry), probes each member's /readyz on this period for
	// the duration of the run. An externally owned registry does its own
	// probing (Registry.StartProbing).
	ProbeInterval time.Duration

	// Breaker tunes the per-worker circuit breakers of a run-owned
	// registry; ignored when Options.Registry is set.
	Breaker BreakerConfig

	// Logf, when non-nil, receives human-readable progress and failure
	// lines (retries, quarantines, speculation).
	Logf func(format string, args ...any)
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

func (o *Options) perWorker() int {
	if o.PerWorker <= 0 {
		return DefaultPerWorker
	}
	return o.PerWorker
}

func (o *Options) maxRetries() int {
	switch {
	case o.MaxRetries == 0:
		return supervise.DefaultMaxRetries
	case o.MaxRetries < 0:
		return 0
	}
	return o.MaxRetries
}

func (o *Options) backoffBounds() (base, max time.Duration) {
	base, max = o.BaseBackoff, o.MaxBackoff
	if base <= 0 {
		base = supervise.DefaultBaseBackoff
	}
	if max <= 0 {
		max = supervise.DefaultMaxBackoff
	}
	if max < base {
		max = base
	}
	return base, max
}

// ShardState reports what the coordinator did for one shard.
type ShardState struct {
	Plan shard.Plan
	Path string // partial-frontier file in the spool

	// Dispatches counts HTTP attempts launched for this shard, including
	// speculative duplicates; Speculated counts just the duplicates.
	Dispatches int
	Speculated int

	// Deferred counts Retry-After deferrals this shard absorbed (held
	// the worker, retried elsewhere, no retry budget spent).
	Deferred int

	// Quarantined lists files holding invalid worker responses (and
	// corrupt pre-existing spool partials) set aside for inspection.
	Quarantined []string

	// Resumed reports the shard was already complete in the spool — a
	// previous coordinator's work honored without any dispatch.
	Resumed bool

	// Worker is the URL whose response won (empty when Resumed or failed).
	Worker string

	Completed bool
	// Covered is the number of enumeration indices the shard's slice
	// spans (the coordinator does not observe worker-side evaluation
	// counts; coverage is what it can vouch for).
	Covered int64
	// Err is the terminal error when !Completed (nil if interrupted
	// cleanly; the shard stays resumable either way).
	Err error
}

// Report is the outcome of a fleet run: per-shard states, totals for
// operational telemetry, and exactly one of Curve (exact merge) or
// Degraded (annotated best-effort merge under AllowPartial); both nil
// when the run was interrupted or failed.
type Report struct {
	Shards      []ShardState
	Curve       *pareto.Curve
	Degraded    *shard.Degraded
	Interrupted bool

	// Dispatches, Retries, Speculations, Quarantines and Deferrals
	// aggregate the per-shard counts — the numbers serve feeds into
	// /stats.
	Dispatches   int64
	Retries      int64
	Speculations int64
	Quarantines  int64
	Deferrals    int64

	// Workers is the per-worker health, breaker and throughput snapshot
	// at the end of the run (Registry.Snapshot).
	Workers []WorkerStatus
}

// coord is one Run invocation's shared state.
type coord struct {
	spec *workload.Spec
	data []byte // canonical spec encoding shipped in every request
	n    int
	opts *Options
	reg  *Registry

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

// Run dispatches an n-shard derivation of spec across the fleet and
// merges the result. The spec must be materialized (workload.Spec.
// Materialize) — its digests are the merge-compatibility identity every
// worker response is validated against. Completed partials land in
// Options.Dir in the supervise layout; shards already complete there are
// honored without dispatch, so rerunning after a coordinator kill
// resumes instead of restarting. On success the report carries the exact
// merged curve, byte-identical to a single-process derivation; permanent
// shard failures fail the run unless Options.AllowPartial promotes the
// outcome to a degraded merge. Cancelled runs return ctx's error with
// Report.Interrupted set; every dispatched worker keeps its checkpoint.
func Run(ctx context.Context, spec *workload.Spec, n int, opts Options) (*Report, error) {
	if n < 1 {
		return nil, fmt.Errorf("fleet: shard count %d, want >= 1", n)
	}
	if len(opts.Workers) == 0 && opts.Registry == nil {
		return nil, fmt.Errorf("fleet: no workers")
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("fleet: no spool directory")
	}
	if spec == nil {
		return nil, fmt.Errorf("fleet: nil spec")
	}
	if _, _, err := spec.Digests(); err != nil {
		return nil, fmt.Errorf("fleet: spec is not dispatchable: %w", err)
	}
	data, err := spec.Encode()
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding spec: %w", err)
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}

	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry(opts.Workers, RegistryConfig{
			PerWorker: opts.perWorker(),
			Breaker:   opts.Breaker,
			Logf:      opts.Logf,
		})
		if opts.ProbeInterval > 0 {
			pctx, pcancel := context.WithCancel(ctx)
			defer pcancel()
			reg.StartProbing(pctx, opts.ProbeInterval, opts.client())
		}
	} else {
		for _, w := range opts.Workers {
			reg.Add(w)
		}
	}
	c := &coord{
		spec: spec,
		data: data,
		n:    n,
		opts: &opts,
		reg:  reg,
	}
	// Wake registry waiters when the run is cancelled, so shards blocked
	// on a slot observe ctx promptly.
	stopWake := context.AfterFunc(ctx, c.reg.wakeAll)
	defer stopWake()

	report := &Report{Shards: make([]ShardState, n)}
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			report.Shards[k] = c.runShard(ctx, k)
		}(k)
	}
	wg.Wait()
	report.Dispatches = c.dispatches.Load()
	report.Retries = c.retries.Load()
	report.Speculations = c.speculations.Load()
	report.Quarantines = c.quarantines.Load()
	report.Deferrals = c.deferrals.Load()
	report.Workers = c.reg.Snapshot()

	if err := ctx.Err(); err != nil {
		report.Interrupted = true
		opts.logf("fleet: interrupted; completed partials are spooled, rerun to resume")
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
		return report, fmt.Errorf("fleet: %d of %d shards failed permanently (rerun to retry, or allow a degraded merge): %w",
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

// runShard drives one shard through dispatches, speculation, backoff and
// quarantine until it completes, exhausts its retry budget, or the run
// context is cancelled.
func (c *coord) runShard(ctx context.Context, k int) ShardState {
	plan := shard.Plan{Index: k, Count: c.n}
	st := ShardState{Plan: plan, Path: supervise.ShardPath(c.opts.Dir, k, c.n)}
	job, err := c.spec.Compile(plan, c.opts.Exec)
	if err != nil {
		st.Err = fmt.Errorf("fleet: building expectation for shard %s: %w", plan, err)
		return st
	}
	expected := expectedManifest(&job)
	st.Covered = expected.RangeHi - expected.RangeLo

	// Honor spooled work first: a complete compatible partial is a
	// previous coordinator's result; a corrupt or foreign one is
	// quarantined so this run's winner can land cleanly.
	switch prev, err := shard.ReadPartial(st.Path); {
	case err == nil:
		if cerr := expected.CompatibleWith(&prev.Manifest); cerr == nil &&
			prev.Manifest.ShardIndex == plan.Index && prev.Manifest.Complete() {
			st.Completed, st.Resumed = true, true
			return st
		} else if cerr != nil || prev.Manifest.ShardIndex != plan.Index {
			c.quarantineFile(&st, "foreign spool partial")
		}
		// Incomplete but ours: the winner's atomic WritePartial will
		// replace it; nothing to do.
	case errors.Is(err, fs.ErrNotExist):
	case errors.Is(err, shard.ErrCorruptPartial):
		c.quarantineFile(&st, "corrupt spool partial")
	default:
		st.Err = fmt.Errorf("fleet: inspecting spool partial %s: %w", st.Path, err)
		return st
	}

	base, maxb := c.opts.backoffBounds()
	seed := c.opts.JitterSeed
	if seed == 0 {
		seed = 1
	}
	rng := rand.New(rand.NewSource(seed + int64(k)))
	retries := c.opts.maxRetries()

	avoid := ""
	for attempt := 0; ; {
		partial, worker, aerr := c.attemptWithSpeculation(ctx, &st, plan, &expected, avoid)
		if aerr == nil {
			if werr := shard.WritePartial(st.Path, partial); werr != nil {
				st.Err = fmt.Errorf("fleet: spooling shard %s: %w", plan, werr)
				return st
			}
			st.Completed = true
			st.Worker = worker
			return st
		}
		if ctx.Err() != nil {
			st.Err = ctx.Err()
			return st
		}
		if errors.Is(aerr, ErrNoWorkers) {
			// An emptied membership fails the shard immediately: waiting
			// would hang on a join that may never come, and retrying cannot
			// conjure a worker.
			st.Err = fmt.Errorf("fleet: shard %s: %w", plan, aerr)
			return st
		}
		var perm *PermanentError
		if errors.As(aerr, &perm) {
			st.Err = fmt.Errorf("fleet: shard %s rejected deterministically: %w", plan, aerr)
			return st
		}
		// A Retry-After deferral already held the worker (coord.record);
		// retry elsewhere immediately without burning budget or backing
		// off — bounded so perpetual deferrals still terminate.
		var ra *RetryAfterError
		if errors.As(aerr, &ra) && st.Deferred < maxShardDeferrals {
			st.Deferred++
			c.deferrals.Add(1)
			c.opts.logf("fleet: shard %s deferred by %s for %v; retrying elsewhere", plan, ra.Worker, ra.After)
			avoid = ""
			continue
		}
		if attempt >= retries {
			st.Err = fmt.Errorf("fleet: shard %s failed after %d dispatches: %w: %w", plan, st.Dispatches, ErrRetriesExhausted, aerr)
			return st
		}
		avoid = worker
		c.retries.Add(1)
		delay := supervise.BackoffDelay(base, maxb, attempt, rng)
		attempt++
		c.opts.logf("fleet: shard %s dispatch failed (%v); retrying in %v", plan, aerr, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			st.Err = ctx.Err()
			return st
		}
	}
}

// attemptResult is one dispatch's outcome.
type attemptResult struct {
	partial *shard.Partial
	worker  string
	qpath   string // quarantine file holding an invalid response, if any
	err     error
}

// attemptWithSpeculation runs one retry round: a primary dispatch, plus —
// after Options.SpeculateAfter with no result yet — at most one
// speculative duplicate on an idle different worker. The first valid
// response wins (the duplicate's context is cancelled; its late response
// is discarded). Returns the winning partial and worker, or — when every
// launched dispatch failed — the last failed worker and the first error.
func (c *coord) attemptWithSpeculation(ctx context.Context, st *ShardState, plan shard.Plan, expected *shard.Manifest, avoid string) (*shard.Partial, string, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	primary, err := c.reg.acquire(actx, avoid)
	if err != nil {
		return nil, "", err
	}
	results := make(chan attemptResult, 2)
	inFlight := map[string]bool{primary: true}
	launch := func(worker string) {
		st.Dispatches++
		c.dispatches.Add(1)
		go func() {
			defer c.reg.release(worker)
			start := time.Now()
			p, qpath, aerr := c.post(actx, st.Path, plan, expected, worker)
			// Health accounting happens here, in the dispatch goroutine, so
			// speculation losers' outcomes reach the breaker and the
			// throughput estimate too.
			c.record(worker, time.Since(start), aerr)
			results <- attemptResult{partial: p, worker: worker, qpath: qpath, err: aerr}
		}()
	}
	launch(primary)

	var spec <-chan time.Time
	if c.opts.SpeculateAfter > 0 {
		t := time.NewTimer(c.opts.SpeculateAfter)
		defer t.Stop()
		spec = t.C
	}
	var firstErr error
	lastWorker := primary
	pending := 1
	for {
		select {
		case r := <-results:
			pending--
			if r.qpath != "" {
				st.Quarantined = append(st.Quarantined, r.qpath)
			}
			if r.err == nil {
				return r.partial, r.worker, nil
			}
			lastWorker = r.worker
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return nil, lastWorker, firstErr
			}
		case <-spec:
			spec = nil
			if w, ok := c.reg.tryAcquire(inFlight); ok {
				inFlight[w] = true
				pending++
				st.Speculated++
				c.speculations.Add(1)
				c.opts.logf("fleet: shard %s straggling; speculating on %s", plan, w)
				launch(w)
			}
		case <-ctx.Done():
			return nil, lastWorker, ctx.Err()
		}
	}
}

// quarantineFile renames the shard's spool slot aside to the first free
// "<path>.corrupt[.N]" name, recording it in the shard state.
func (c *coord) quarantineFile(st *ShardState, why string) {
	for i := 0; ; i++ {
		qpath := st.Path + ".corrupt"
		if i > 0 {
			qpath = fmt.Sprintf("%s.corrupt.%d", st.Path, i)
		}
		if _, err := os.Stat(qpath); err == nil {
			continue
		}
		if err := os.Rename(st.Path, qpath); err != nil {
			c.opts.logf("fleet: cannot quarantine %s (%s): %v", st.Path, why, err)
			return
		}
		st.Quarantined = append(st.Quarantined, qpath)
		c.quarantines.Add(1)
		c.opts.logf("fleet: quarantined %s (%s) to %s", st.Path, why, qpath)
		return
	}
}

// expectedManifest builds the manifest every response for this shard
// must be compatible with — the same construction shard.Run stamps into
// checkpoints, derived locally so validation never trusts the wire.
func expectedManifest(job *shard.Job) shard.Manifest {
	lo, hi := job.Plan.Slice(job.Items)
	return shard.Manifest{
		FormatVersion:    shard.FormatVersion,
		Engine:           shard.Engine,
		Kind:             job.Kind,
		Workload:         job.Workload,
		WorkloadDigest:   job.WorkloadDigest,
		OptionsDigest:    job.OptionsDigest,
		ShardIndex:       job.Plan.Index,
		ShardCount:       job.Plan.Count,
		Items:            job.Items,
		RangeLo:          lo,
		RangeHi:          hi,
		CompletedThrough: lo,
		Spec:             job.Spec,
	}
}
