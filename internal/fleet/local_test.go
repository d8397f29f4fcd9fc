package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/workload"
)

// The tests in this file drive the in-process attempt: no worker URLs
// and no registry, so every shard runs shard.Run on its spool slot.

// fastOpts shortens the retry schedule so fault-injection tests finish in
// milliseconds instead of sleeping through real backoff.
func fastOpts(dir string) Options {
	return Options{
		Dir:             dir,
		CheckpointEvery: 7,
		baseBackoff:     time.Millisecond,
		maxBackoff:      2 * time.Millisecond,
	}
}

func curveBytes(t *testing.T, c *pareto.Curve) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func testWorkload(t *testing.T) (*einsum.Einsum, bound.Options, string) {
	t.Helper()
	e := einsum.GEMM("gemm_32", 32, 24, 16)
	opts := bound.Options{Workers: 2}
	return e, opts, curveBytes(t, bound.Derive(e, opts).Curve)
}

// boundJob compiles plan slot p of the bound derivation of e under opts.
func boundJob(e *einsum.Einsum, opts bound.Options, p shard.Plan) (shard.Job, error) {
	return workload.NewBound(e, opts).Compile(p, workload.Exec{Workers: opts.Workers})
}

func boundMkJob(e *einsum.Einsum, opts bound.Options) func(shard.Plan) (shard.Job, error) {
	return func(p shard.Plan) (shard.Job, error) { return boundJob(e, opts, p) }
}

// TestSupervisedParityWithTransientFaults is the headline acceptance test:
// for N in {2, 4, 8}, a supervised run with injected transient I/O
// failures produces the merged curve byte-identical to the single-process
// derivation, with the failures absorbed by retries.
func TestSupervisedParityWithTransientFaults(t *testing.T) {
	e, opts, want := testWorkload(t)
	errDisk := errors.New("injected transient disk fault")

	for _, n := range []int{2, 4, 8} {
		dir := t.TempDir()
		sopts := fastOpts(dir)
		// Two transient sync failures, each aborting one attempt somewhere
		// in the fleet.
		sopts.FS = &shard.FaultFS{Fail: shard.FailN(shard.OpSync, 2, errDisk)}
		report, err := Run(context.Background(), n, boundMkJob(e, opts), sopts)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if report.Curve == nil || report.Degraded != nil {
			t.Fatalf("N=%d: expected an exact merge, got %+v", n, report)
		}
		if got := curveBytes(t, report.Curve); got != want {
			t.Fatalf("N=%d: supervised curve differs from single-process derive\n got %s\nwant %s", n, got, want)
		}
		var attempts int
		for _, st := range report.Shards {
			if !st.Completed {
				t.Fatalf("N=%d: shard %s not completed: %v", n, st.Plan, st.Err)
			}
			attempts += st.Attempts
		}
		if attempts != n+2 {
			t.Fatalf("N=%d: %d attempts, want %d (one per shard plus one per injected fault)", n, attempts, n+2)
		}
	}
}

// TestSupervisedInterruptThenResume simulates a mid-run SIGTERM (parent
// context cancellation — exactly what signal.NotifyContext delivers):
// the run reports interruption with flushed checkpoints, and rerunning
// the same supervision completes to the byte-identical curve.
func TestSupervisedInterruptThenResume(t *testing.T) {
	e, opts, want := testWorkload(t)
	dir := t.TempDir()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var flushes atomic.Int64
	sopts := fastOpts(dir)
	sopts.OnCheckpoint = func(shard.Manifest) {
		if flushes.Add(1) == 3 {
			cancel()
		}
	}
	report, err := Run(ctx, 4, boundMkJob(e, opts), sopts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !report.Interrupted {
		t.Fatal("report does not mark the run interrupted")
	}
	if report.Curve != nil || report.Degraded != nil {
		t.Fatal("interrupted run still emitted a merged curve")
	}
	// Every flushed checkpoint on disk must be readable and resumable.
	files, err := filepath.Glob(filepath.Join(dir, "shard-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, rerr := shard.ReadPartial(nil, f); rerr != nil {
			t.Fatalf("checkpoint %s unreadable after interrupt: %v", f, rerr)
		}
	}

	// "Rerun the same command": same dir, fresh context.
	report, err = Run(context.Background(), 4, boundMkJob(e, opts), fastOpts(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := curveBytes(t, report.Curve); got != want {
		t.Fatalf("interrupt+resume curve differs from single-process derive\n got %s\nwant %s", got, want)
	}
}

// TestSupervisorQuarantinesCorruptCheckpoints drives the corruption
// matrix end to end: for every corruption class, the scheduler
// quarantines the poisoned checkpoint (renamed aside, evidence intact),
// re-derives the shard, and still produces the exact merged curve.
func TestSupervisorQuarantinesCorruptCheckpoints(t *testing.T) {
	e, opts, want := testWorkload(t)

	corruptions := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{
			name: "garbage-bytes",
			corrupt: func(t *testing.T, path string) {
				if err := os.WriteFile(path, []byte("{\"manifest\": tor"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "foreign-derivation",
			corrupt: func(t *testing.T, path string) {
				// A structurally valid partial of different options.
				job, err := boundJob(e, bound.Options{ImperfectExtra: 2}, shard.Plan{Index: 1, Count: 3})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: path}); err != nil {
					t.Fatal(err)
				}
			},
		},
	}

	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			poisoned := ShardPath(dir, 1, 3)
			tc.corrupt(t, poisoned)

			report, err := Run(context.Background(), 3, boundMkJob(e, opts), fastOpts(dir))
			if err != nil {
				t.Fatal(err)
			}
			st := report.Shards[1]
			if len(st.Quarantined) != 1 {
				t.Fatalf("shard 2/3 quarantined %v, want exactly one file", st.Quarantined)
			}
			if !strings.Contains(st.Quarantined[0], ".corrupt") {
				t.Fatalf("quarantine name %q lacks the .corrupt suffix", st.Quarantined[0])
			}
			if _, serr := os.Stat(st.Quarantined[0]); serr != nil {
				t.Fatalf("quarantined evidence missing: %v", serr)
			}
			if got := curveBytes(t, report.Curve); got != want {
				t.Fatalf("post-quarantine curve differs from single-process derive\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestSupervisorDegradedMerge: a permanently failing shard either fails
// the whole run (default) or, under AllowPartial, degrades to an
// explicitly annotated merge carrying the covered index fraction.
func TestSupervisorDegradedMerge(t *testing.T) {
	e, opts, _ := testWorkload(t)
	errDead := errors.New("permanently broken shard")
	mkJob := func(p shard.Plan) (shard.Job, error) {
		job, err := boundJob(e, opts, p)
		if err != nil {
			return shard.Job{}, err
		}
		if p.Index == 1 {
			job.Derive = func(context.Context, int64, int64, int64) (*pareto.Curve, int64, error) {
				return nil, 0, errDead
			}
		}
		return job, nil
	}

	dir := t.TempDir()
	sopts := fastOpts(dir)
	sopts.MaxRetries = -1 // no retries: fail fast
	_, err := Run(context.Background(), 4, mkJob, sopts)
	if err == nil {
		t.Fatal("run succeeded with a permanently failing shard and no -allow-partial")
	}
	if !strings.Contains(err.Error(), "allow-partial") {
		t.Fatalf("refusal does not mention the -allow-partial escape hatch: %v", err)
	}

	sopts = fastOpts(dir)
	sopts.MaxRetries = -1
	sopts.AllowPartial = true
	report, err := Run(context.Background(), 4, mkJob, sopts)
	if err != nil {
		t.Fatal(err)
	}
	d := report.Degraded
	if d == nil {
		t.Fatal("AllowPartial run emitted no degraded merge")
	}
	if report.Curve != d.Curve || !report.Curve.Degraded {
		t.Fatal("degraded run's curve is not its degraded union")
	}
	if d.Complete() || d.CoveredFraction >= 1 {
		t.Fatalf("degraded merge claims completeness: %+v", d)
	}
	if len(d.MissingShards) != 1 || d.MissingShards[0] != 1 {
		t.Fatalf("missing shards %v, want [1]", d.MissingShards)
	}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"degraded":true`) || !strings.Contains(string(data), `"covered_fraction"`) {
		t.Fatalf("degraded envelope lacks its annotations: %s", data)
	}
}

// TestBackoffDeterministicAndBounded: the retry schedule grows
// exponentially, respects the cap, and is reproducible for a fixed seed.
func TestBackoffDeterministicAndBounded(t *testing.T) {
	mk := func() []time.Duration {
		rng := rand.New(rand.NewSource(42))
		var ds []time.Duration
		for attempt := 0; attempt < 8; attempt++ {
			ds = append(ds, BackoffDelay(100*time.Millisecond, time.Second, attempt, rng))
		}
		return ds
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: schedule not deterministic (%v vs %v)", i, a[i], b[i])
		}
		if a[i] > time.Second+time.Second/2 {
			t.Fatalf("attempt %d: delay %v exceeds cap+jitter bound", i, a[i])
		}
		if a[i] < time.Millisecond {
			t.Fatalf("attempt %d: delay %v below the millisecond floor", i, a[i])
		}
	}
	if a[0] >= time.Second {
		t.Fatalf("first delay %v shows no exponential ramp", a[0])
	}
}

// TestRunValidatesOptions: bad shard counts and a missing directory are
// refused up front.
func TestRunValidatesOptions(t *testing.T) {
	e, opts, _ := testWorkload(t)
	if _, err := Run(context.Background(), 0, boundMkJob(e, opts), fastOpts(t.TempDir())); err == nil {
		t.Fatal("accepted zero shards")
	}
	if _, err := Run(context.Background(), 2, boundMkJob(e, opts), Options{}); err == nil {
		t.Fatal("accepted an empty shard directory")
	}
}

// TestCancelledDeriveNotRetried: a derivation that reports
// context.Canceled / DeadlineExceeded without the parent context being
// the cause is external intent, not a transient fault — the scheduler
// must surface it after exactly one attempt instead of burning the whole
// retry budget on a cancelled run.
func TestCancelledDeriveNotRetried(t *testing.T) {
	e, opts, _ := testWorkload(t)
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		mkJob := func(p shard.Plan) (shard.Job, error) {
			job, err := boundJob(e, opts, p)
			if err != nil {
				return shard.Job{}, err
			}
			job.Derive = func(context.Context, int64, int64, int64) (*pareto.Curve, int64, error) {
				return nil, 0, fmt.Errorf("inner run gave up: %w", cause)
			}
			return job, nil
		}
		sopts := fastOpts(t.TempDir())
		sopts.MaxRetries = 5
		report, err := Run(context.Background(), 2, mkJob, sopts)
		if err == nil {
			t.Fatalf("cause=%v: run succeeded with a permanently cancelled derive", cause)
		}
		for _, st := range report.Shards {
			if st.Attempts != 1 {
				t.Fatalf("cause=%v: shard %s took %d attempts, want 1 (zero retries after cancellation)",
					cause, st.Plan, st.Attempts)
			}
			if !errors.Is(st.Err, cause) {
				t.Fatalf("cause=%v: shard %s error %v does not wrap the cancellation", cause, st.Plan, st.Err)
			}
		}
	}
}
