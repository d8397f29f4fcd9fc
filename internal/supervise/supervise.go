// Package supervise runs every shard of a sharded bound derivation to
// completion under one roof — the reliability layer over the repo's
// hottest long-running path. Where internal/shard gives one shard a
// checkpointed, resumable Run, this package gives the whole plan an
// orchestrator: per-shard goroutine supervision with bounded retry,
// exponential backoff and deterministic jitter; per-attempt and whole-run
// deadlines; quarantine of corrupt or foreign checkpoint files (renamed
// to *.corrupt and re-derived from scratch); and a final merge that is
// either the exact byte-identical single-process curve or — only when
// explicitly allowed — a degraded curve annotated with its covered index
// fraction.
//
// The same spirit as the restartable search harnesses around
// Timeloop-style mappers (Parashar et al., ISPASS 2019) and GAMMA-style
// genetic search (Kao & Krishna, ICCAD 2020): the evaluator inside is
// deterministic and oblivious, the harness around it owns failure.
//
// Cancellation (SIGINT/SIGTERM via signal.NotifyContext in the CLIs)
// reaches inside a checkpoint block: shard.Run plumbs the context through
// the traversal engine, so a supervised run stops within about one
// traversal worker chunk, flushes a final checkpoint, and leaves every
// shard resumable by simply rerunning the same command.
package supervise

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/pareto"
	"repro/internal/shard"
)

// Defaults for the retry schedule; tests shorten them via Options.
const (
	DefaultMaxRetries  = 3
	DefaultBaseBackoff = 100 * time.Millisecond
	DefaultMaxBackoff  = 5 * time.Second
)

// Options tunes a supervised run.
type Options struct {
	// Dir is the directory the per-shard partial-frontier files live in
	// (checkpoint targets while running, resume sources on restart).
	// Required.
	Dir string

	// CheckpointEvery is the number of enumeration indices per
	// checkpoint flush within each shard (shard.RunOptions).
	CheckpointEvery int64

	// Parallel caps how many shards derive concurrently. <= 0 means
	// min(shard count, GOMAXPROCS) — each shard's own traversal already
	// parallelizes, so more rarely helps.
	Parallel int

	// Workers is advisory for the jobs the caller builds; the supervisor
	// itself does not use it. Retries and merges are worker-agnostic.

	// MaxRetries is the per-shard retry budget beyond the first attempt.
	// 0 means DefaultMaxRetries; negative means no retries.
	MaxRetries int

	// BaseBackoff and MaxBackoff bound the exponential backoff between a
	// shard's attempts: attempt k waits about BaseBackoff·2^k, capped at
	// MaxBackoff, with ±50% deterministic jitter. Zero values pick the
	// defaults.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration

	// JitterSeed seeds the per-shard jitter streams, so a supervised run
	// is reproducible under test. Zero means 1.
	JitterSeed int64

	// AttemptTimeout, when positive, bounds each attempt of each shard;
	// an attempt that exceeds it is cancelled at chunk granularity and
	// retried from its last checkpoint (progress is monotonic across
	// attempts, so a too-slow shard still converges).
	AttemptTimeout time.Duration

	// RunTimeout, when positive, bounds the whole supervised run.
	RunTimeout time.Duration

	// AllowPartial permits a degraded merge when shards fail
	// permanently: the result carries the covered index fraction instead
	// of being refused. Without it, any failed shard fails the run.
	AllowPartial bool

	// FS is the filesystem seam handed to every shard.Run (nil = OS);
	// the robustness suite injects faults here.
	FS shard.FS

	// Logf, when non-nil, receives human-readable progress and failure
	// lines (retries, quarantines, interrupts).
	Logf func(format string, args ...any)

	// OnCheckpoint, when non-nil, observes every successful checkpoint
	// flush of every shard.
	OnCheckpoint func(shard.Manifest)
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
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

// ShardState reports what the supervisor did for one shard.
type ShardState struct {
	Plan        shard.Plan
	Path        string   // partial-frontier file
	Attempts    int      // shard.Run invocations (1 = first try succeeded)
	Quarantined []string // corrupt checkpoint files renamed aside
	Completed   bool
	Evaluated   int64 // points evaluated across all attempts of this run
	Err         error // terminal error when !Completed (nil if interrupted cleanly)
}

// Report is the outcome of a supervised run: per-shard states plus
// exactly one of Curve (exact merge of a complete shard set) or Degraded
// (annotated best-effort merge under AllowPartial). Both are nil when the
// run was interrupted or failed.
type Report struct {
	Shards      []ShardState
	Curve       *pareto.Curve
	Degraded    *shard.Degraded
	Interrupted bool
}

// ShardPath names shard k (0-based) of n's partial-frontier file inside
// dir — the layout both the supervisor and a human resuming by hand use.
func ShardPath(dir string, k, n int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", k+1, n))
}

// Run supervises an n-shard derivation to completion. mkJob builds the
// job for one shard of the plan; all jobs must describe the same
// derivation (same workload and options digests), which the final merge
// re-verifies. Shards run concurrently up to Options.Parallel, each
// attempt resuming from the shard's last flushed checkpoint, so neither
// retries nor interrupts ever repeat completed blocks.
//
// On success the report carries the exact merged curve — byte-identical
// to a single-process derivation. If shards fail past their retry budget,
// Run fails, unless Options.AllowPartial promotes the outcome to an
// annotated degraded merge (Report.Degraded). If ctx is cancelled
// (SIGINT/SIGTERM), Run flushes final checkpoints, marks the report
// interrupted, and returns the context error: rerunning the same
// supervised command resumes every shard.
func Run(ctx context.Context, n int, mkJob func(shard.Plan) (shard.Job, error), opts Options) (*Report, error) {
	if n < 1 {
		return nil, fmt.Errorf("supervise: shard count %d, want >= 1", n)
	}
	if opts.Dir == "" {
		return nil, fmt.Errorf("supervise: no shard directory")
	}
	if opts.RunTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.RunTimeout)
		defer cancel()
	}

	parallel := opts.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}

	report := &Report{Shards: make([]ShardState, n)}
	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			report.Shards[k] = superviseShard(ctx, shard.Plan{Index: k, Count: n}, mkJob, &opts)
		}(k)
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		report.Interrupted = true
		opts.logf("supervise: interrupted; all checkpoints flushed, rerun to resume")
		return report, err
	}

	var failed []string
	for k := range report.Shards {
		if st := &report.Shards[k]; !st.Completed {
			failed = append(failed, fmt.Sprintf("shard %s: %v", st.Plan, st.Err))
		}
	}
	if len(failed) == 0 {
		paths := make([]string, n)
		for k := range paths {
			paths[k] = report.Shards[k].Path
		}
		curve, err := shard.MergeFiles(paths...)
		if err != nil {
			return report, fmt.Errorf("supervise: final merge: %w", err)
		}
		report.Curve = curve
		return report, nil
	}
	if !opts.AllowPartial {
		return report, fmt.Errorf("supervise: %d of %d shards failed permanently (rerun to retry, or use -allow-partial for an annotated degraded merge):\n  %s",
			len(failed), n, strings.Join(failed, "\n  "))
	}

	degraded, err := mergeDegraded(report, &opts)
	if err != nil {
		return report, err
	}
	report.Degraded = degraded
	opts.logf("supervise: degraded merge covers %d of %d indices (%.2f%%); missing shards %v, incomplete %v",
		degraded.CoveredIndices, degraded.Items, 100*degraded.CoveredFraction,
		degraded.MissingShards, degraded.IncompleteShards)
	return report, nil
}

// mergeDegraded merges every readable partial the run left behind.
func mergeDegraded(report *Report, opts *Options) (*shard.Degraded, error) {
	var partials []*shard.Partial
	for k := range report.Shards {
		st := &report.Shards[k]
		p, err := shard.ReadPartial(st.Path)
		if err != nil {
			if !errors.Is(err, fs.ErrNotExist) {
				opts.logf("supervise: degraded merge skips %s: %v", st.Path, err)
			}
			continue
		}
		partials = append(partials, p)
	}
	if len(partials) == 0 {
		return nil, fmt.Errorf("supervise: degraded merge: no readable partial frontiers")
	}
	sort.Slice(partials, func(i, j int) bool {
		return partials[i].Manifest.ShardIndex < partials[j].Manifest.ShardIndex
	})
	return shard.MergeDegraded(partials...)
}

// superviseShard drives one shard through attempts, backoff, and
// quarantine until it completes, exhausts its retry budget, or the parent
// context is cancelled.
func superviseShard(ctx context.Context, plan shard.Plan, mkJob func(shard.Plan) (shard.Job, error), opts *Options) ShardState {
	st := ShardState{Plan: plan, Path: ShardPath(opts.Dir, plan.Index, plan.Count)}
	job, err := mkJob(plan)
	if err != nil {
		st.Err = fmt.Errorf("supervise: building job for shard %s: %w", plan, err)
		return st
	}
	base, maxb := opts.backoffBounds()
	seed := opts.JitterSeed
	if seed == 0 {
		seed = 1
	}
	// Per-shard deterministic jitter stream: reruns with the same seed
	// reproduce the same schedule, and shards do not thundering-herd.
	rng := rand.New(rand.NewSource(seed + int64(plan.Index)))
	retries := opts.maxRetries()

	for attempt := 0; ; attempt++ {
		actx := ctx
		var cancel context.CancelFunc = func() {}
		if opts.AttemptTimeout > 0 {
			actx, cancel = context.WithTimeout(ctx, opts.AttemptTimeout)
		}
		_, rstats, err := shard.Run(actx, job, shard.RunOptions{
			Path:            st.Path,
			CheckpointEvery: opts.CheckpointEvery,
			OnCheckpoint:    opts.OnCheckpoint,
			FS:              opts.FS,
		})
		// Whether this attempt's own deadline fired must be read before
		// cancel() below, which would overwrite actx.Err with Canceled.
		attemptTimedOut := opts.AttemptTimeout > 0 && actx.Err() != nil && ctx.Err() == nil
		cancel()
		st.Attempts++
		st.Evaluated += rstats.Evaluated
		if err == nil {
			st.Completed = true
			return st
		}
		if ctx.Err() != nil {
			// Parent cancellation (signal or whole-run deadline): not a
			// shard failure — the checkpoint is flushed and resumable.
			st.Err = ctx.Err()
			return st
		}
		if !attemptTimedOut && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			// A cancellation that is neither the parent's nor this
			// attempt's timeout came from inside the derivation (e.g. a
			// server request whose waiters all left). Retrying cannot
			// succeed — the cause is external intent, not a transient
			// fault — so surface it immediately instead of burning the
			// retry budget.
			st.Err = fmt.Errorf("supervise: shard %s cancelled (non-retryable): %w", plan, err)
			return st
		}
		if errors.Is(err, shard.ErrCorruptPartial) || errors.Is(err, shard.ErrForeignPartial) {
			// The checkpoint file itself is the problem: quarantine it so
			// the evidence survives, then re-derive the slice fresh.
			qpath, qerr := quarantine(opts, st.Path)
			if qerr != nil {
				st.Err = fmt.Errorf("supervise: shard %s: cannot quarantine corrupt checkpoint: %w (cause: %v)", plan, qerr, err)
				return st
			}
			st.Quarantined = append(st.Quarantined, qpath)
			opts.logf("supervise: shard %s: quarantined corrupt checkpoint to %s, re-deriving", plan, qpath)
		}
		if attempt >= retries {
			st.Err = fmt.Errorf("supervise: shard %s failed after %d attempts: %w", plan, st.Attempts, err)
			return st
		}
		delay := BackoffDelay(base, maxb, attempt, rng)
		opts.logf("supervise: shard %s attempt %d failed (%v); retrying in %v", plan, st.Attempts, err, delay)
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			st.Err = ctx.Err()
			return st
		}
	}
}

// BackoffDelay computes attempt k's wait: base·2^k capped at max, with
// ±50% jitter drawn from the shard's deterministic stream rng. It is the
// retry schedule of Supervise and of the fleet's dispatch loop.
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

// quarantine renames a corrupt checkpoint aside to the first free
// "<path>.corrupt[.N]" name, preserving the evidence while clearing the
// slot for re-derivation.
func quarantine(opts *Options, path string) (string, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = shard.OS()
	}
	for i := 0; ; i++ {
		qpath := path + ".corrupt"
		if i > 0 {
			qpath = fmt.Sprintf("%s.corrupt.%d", path, i)
		}
		if _, err := fsys.Stat(qpath); err == nil {
			continue // name taken by an earlier quarantine
		} else if !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		if err := fsys.Rename(path, qpath); err != nil {
			return "", err
		}
		return qpath, nil
	}
}
