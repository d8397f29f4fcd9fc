package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/fleet/chaos"
	"repro/internal/shard"
	"repro/internal/workload"
)

// The TestChaos* suite is the robustness matrix `make chaos` runs under
// -race: every injected fault class must end in a merge byte-identical
// to the single-process curve (or a correctly annotated degraded merge
// under AllowPartial), open breakers must actually shed load, and the
// throughput-aware allocator must favor fast workers. Faults enter
// through chaos.Transport — the production dispatch path runs
// unmodified.

// chaosRun runs a fleet derivation with the given faulty transport and
// asserts the merge is byte-identical to the single-process curve.
func chaosRun(t *testing.T, n int, tr *chaos.Transport, opts Options) *Report {
	t.Helper()
	dir := t.TempDir()
	opts.Dir = dir
	opts.Client = tr.Client()
	if opts.BaseBackoff == 0 {
		opts.BaseBackoff = time.Millisecond
	}
	if opts.MaxBackoff == 0 {
		opts.MaxBackoff = 4 * time.Millisecond
	}
	report, err := Run(context.Background(), n, jobsOf(testSpec()), opts)
	if err != nil {
		t.Fatalf("fleet run under fault: %v", err)
	}
	got, err := json.Marshal(report.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCurve(t) {
		t.Fatal("curve under fault differs from single-process derive")
	}
	assertCleanSpool(t, dir)
	return report
}

// statusOf finds a worker's final status in a registry.
func statusOf(t *testing.T, reg *Registry, url string) WorkerStatus {
	t.Helper()
	for _, ws := range reg.Snapshot() {
		if ws.URL == url {
			return ws
		}
	}
	t.Fatalf("worker %s missing from registry", url)
	return WorkerStatus{}
}

// TestChaosMatrix drives one faulty and one good worker through each
// transport fault class and requires an exact merge every time.
func TestChaosMatrix(t *testing.T) {
	cases := []struct {
		name string
		// inject scripts the faulty worker; it returns extra Options and a
		// post-run assertion.
		inject func(tr *chaos.Transport, faulty string) (Options, func(t *testing.T, reg *Registry))
	}{
		{
			name: "hang",
			inject: func(tr *chaos.Transport, faulty string) (Options, func(*testing.T, *Registry)) {
				tr.Script(faulty, chaos.Hang(), chaos.Hang())
				return Options{AttemptTimeout: 500 * time.Millisecond}, func(t *testing.T, reg *Registry) {
					if reg.Totals().Retries == 0 {
						t.Fatal("hangs cost no retries — the faulty worker was never dispatched to")
					}
				}
			},
		},
		{
			name: "connection refused",
			inject: func(tr *chaos.Transport, faulty string) (Options, func(*testing.T, *Registry)) {
				tr.Always(faulty, chaos.Refuse())
				return Options{}, func(t *testing.T, reg *Registry) {
					ws := statusOf(t, reg, faulty)
					if ws.Completions != 0 || ws.Failures == 0 {
						t.Fatalf("refused worker books: %+v", ws)
					}
				}
			},
		},
		{
			name: "5xx flap",
			inject: func(tr *chaos.Transport, faulty string) (Options, func(*testing.T, *Registry)) {
				tr.Script(faulty, chaos.Status(http.StatusInternalServerError, 0),
					chaos.Status(http.StatusInternalServerError, 0), chaos.Pass())
				return Options{}, nil
			},
		},
		{
			name: "partition mid-body",
			inject: func(tr *chaos.Transport, faulty string) (Options, func(*testing.T, *Registry)) {
				tr.Script(faulty, chaos.PartitionMidBody(), chaos.PartitionMidBody())
				return Options{}, func(t *testing.T, reg *Registry) {
					if reg.Totals().Retries == 0 {
						t.Fatal("partitions cost no retries")
					}
				}
			},
		},
		{
			name: "slow drip past the attempt deadline",
			inject: func(tr *chaos.Transport, faulty string) (Options, func(*testing.T, *Registry)) {
				tr.Script(faulty, chaos.SlowDrip(2*time.Second, 64), chaos.SlowDrip(2*time.Second, 64))
				return Options{AttemptTimeout: 300 * time.Millisecond}, nil
			},
		},
		{
			name: "saturated with Retry-After",
			inject: func(tr *chaos.Transport, faulty string) (Options, func(*testing.T, *Registry)) {
				tr.Script(faulty, chaos.Status(http.StatusTooManyRequests, time.Second),
					chaos.Status(http.StatusTooManyRequests, time.Second))
				return Options{}, func(t *testing.T, reg *Registry) {
					if reg.Totals().Deferrals == 0 {
						t.Fatal("Retry-After answers produced no deferrals")
					}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faulty, good := newWorker(t, nil), newWorker(t, nil)
			tr := chaos.NewTransport(nil)
			opts, check := tc.inject(tr, faulty.URL)
			opts.Registry = registryOf(RegistryConfig{}, faulty.URL, good.URL)
			chaosRun(t, 4, tr, opts)
			if check != nil {
				check(t, opts.Registry)
			}
		})
	}
}

// TestChaosBreakerShedsLoad pins load-shedding at fleet scale: a worker
// that refuses every connection trips its breaker after the configured
// failures, and — with the cooldown longer than the run — absorbs no
// further dispatches while the healthy worker serves everything.
func TestChaosBreakerShedsLoad(t *testing.T) {
	faulty, good := newWorker(t, nil), newWorker(t, nil)
	tr := chaos.NewTransport(nil)
	tr.Always(faulty.URL, chaos.Refuse())

	const n = 12
	reg := registryOf(RegistryConfig{Breaker: BreakerConfig{Failures: 2, Cooldown: time.Minute}}, faulty.URL, good.URL)
	chaosRun(t, n, tr, Options{
		Registry: reg,
	})

	fs, gs := statusOf(t, reg, faulty.URL), statusOf(t, reg, good.URL)
	if fs.Breaker != "open" {
		t.Fatalf("faulty worker breaker %q, want open", fs.Breaker)
	}
	// The trip happens after 2 consecutive failures; with 2 slots the
	// in-flight window can add at most 2 more dispatches before every
	// later acquire sees the open breaker. 12 shards, so an unshed worker
	// would have absorbed far more.
	if fs.Dispatches > 4 {
		t.Fatalf("open breaker did not shed: faulty worker absorbed %d dispatches", fs.Dispatches)
	}
	if fs.Completions != 0 || gs.Completions != n {
		t.Fatalf("completions faulty=%d good=%d, want 0 and %d", fs.Completions, gs.Completions, n)
	}
}

// TestChaosBreakerRecovery pins the half-open cycle end to end on a
// one-worker fleet: failures open the breaker, the shard then waits out
// the cooldown (no dispatches land meanwhile — the run cannot finish
// faster than the cooldown), the half-open probe dispatch succeeds, and
// the breaker re-closes.
func TestChaosBreakerRecovery(t *testing.T) {
	worker := newWorker(t, nil)
	tr := chaos.NewTransport(nil)
	tr.Script(worker.URL, chaos.Refuse(), chaos.Refuse())

	const cooldown = 300 * time.Millisecond
	start := time.Now()
	reg := registryOf(RegistryConfig{Breaker: BreakerConfig{Failures: 2, Cooldown: cooldown}}, worker.URL)
	chaosRun(t, 1, tr, Options{
		Registry:   reg,
		MaxRetries: 5,
	})
	if elapsed := time.Since(start); elapsed < cooldown {
		t.Fatalf("run finished in %v, inside the %v cooldown — the open breaker admitted a dispatch early", elapsed, cooldown)
	}
	ws := statusOf(t, reg, worker.URL)
	if ws.Breaker != "closed" {
		t.Fatalf("breaker %q after successful probe, want closed", ws.Breaker)
	}
	if ws.Dispatches != 3 || ws.Completions != 1 {
		t.Fatalf("books %+v, want exactly 2 failures + 1 probe completion", ws)
	}
}

// TestChaosThroughputAllocation pins the EWMA scoring: against one fast
// and one slow (but correct) worker, the fast worker measurably
// receives — and completes — more shards.
func TestChaosThroughputAllocation(t *testing.T) {
	fast, slow := newWorker(t, nil), newWorker(t, nil)
	tr := chaos.NewTransport(nil)
	// ~2×200ms per slow response (one dripped data read + the EOF read);
	// the fast worker answers at compute speed.
	tr.Always(slow.URL, chaos.SlowDrip(200*time.Millisecond, 1<<20))

	reg := registryOf(RegistryConfig{}, fast.URL, slow.URL)
	chaosRun(t, 10, tr, Options{
		Registry: reg,
	})
	fs, ss := statusOf(t, reg, fast.URL), statusOf(t, reg, slow.URL)
	if fs.Completions <= ss.Completions {
		t.Fatalf("throughput allocation: fast worker completed %d, slow %d — want strictly more on the fast one",
			fs.Completions, ss.Completions)
	}
	if fs.ShardsPerSec <= ss.ShardsPerSec {
		t.Fatalf("EWMA fast=%v slow=%v, want fast > slow", fs.ShardsPerSec, ss.ShardsPerSec)
	}
}

// TestChaosWorkerJoins pins dynamic membership mid-run: a fleet started
// on one slow worker gets a fast joiner partway through, and the joiner
// picks up queued shards — with the merge still byte-identical.
func TestChaosWorkerJoins(t *testing.T) {
	slow, fresh := newWorker(t, nil), newWorker(t, nil)
	tr := chaos.NewTransport(nil)
	tr.Always(slow.URL, chaos.SlowDrip(100*time.Millisecond, 1<<20))

	reg := registryOf(RegistryConfig{PerWorker: 1}, slow.URL)
	dir := t.TempDir()
	done := make(chan *Report, 1)
	go func() {
		report, err := Run(context.Background(), 6, jobsOf(testSpec()), Options{
			Registry: reg,
			Dir:      dir,
			Client:   tr.Client(),
		})
		if err != nil {
			t.Error(err)
		}
		done <- report
	}()

	// Let the slow worker absorb the head of the queue, then join.
	time.Sleep(250 * time.Millisecond)
	if !reg.Add(fresh.URL) {
		t.Fatal("join rejected")
	}
	report := <-done
	if report == nil {
		t.Fatal("run failed")
	}
	got, err := json.Marshal(report.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCurve(t) {
		t.Fatal("curve after mid-run join differs from single-process derive")
	}
	if ws := statusOf(t, reg, fresh.URL); ws.Completions == 0 {
		t.Fatalf("mid-run joiner completed no shards: %+v", ws)
	}
	assertCleanSpool(t, dir)
}

// TestChaosLastWorkerDies pins the no-hang guarantee when the fleet
// runs out of workers, in all three endings: retry-budget exhaustion
// names ErrRetriesExhausted, an emptied membership names ErrNoWorkers,
// and AllowPartial degrades instead of failing.
func TestChaosLastWorkerDies(t *testing.T) {
	t.Run("retries exhausted", func(t *testing.T) {
		worker := newWorker(t, nil)
		tr := chaos.NewTransport(nil)
		tr.Always(worker.URL, chaos.Refuse())
		_, err := Run(context.Background(), 2, jobsOf(testSpec()), Options{
			Registry:    registryOf(RegistryConfig{Breaker: BreakerConfig{Cooldown: 20 * time.Millisecond}}, worker.URL),
			Dir:         t.TempDir(),
			Client:      tr.Client(),
			MaxRetries:  1,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
		})
		if !errors.Is(err, ErrRetriesExhausted) {
			t.Fatalf("run error %v, want ErrRetriesExhausted", err)
		}
	})

	t.Run("membership emptied", func(t *testing.T) {
		worker := newWorker(t, nil)
		tr := chaos.NewTransport(nil)
		tr.Always(worker.URL, chaos.Hang())
		reg := registryOf(RegistryConfig{}, worker.URL)
		errc := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), 2, jobsOf(testSpec()), Options{
				Registry:       reg,
				Dir:            t.TempDir(),
				Client:         tr.Client(),
				AttemptTimeout: 200 * time.Millisecond,
				MaxRetries:     10,
				BaseBackoff:    time.Millisecond,
				MaxBackoff:     2 * time.Millisecond,
			})
			errc <- err
		}()
		time.Sleep(50 * time.Millisecond)
		reg.Remove(worker.URL)
		select {
		case err := <-errc:
			if !errors.Is(err, ErrNoWorkers) {
				t.Fatalf("run error %v, want ErrNoWorkers", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("run hung after the last worker left")
		}
	})

	t.Run("degrades under allow_partial", func(t *testing.T) {
		// Shard 0 of 2 is already spooled by a previous (coordinator's)
		// life; every worker is dead. AllowPartial must produce the
		// annotated half-coverage envelope instead of an error.
		dir := t.TempDir()
		spoolShard(t, dir, 0, 2)
		worker := newWorker(t, nil)
		tr := chaos.NewTransport(nil)
		tr.Always(worker.URL, chaos.Refuse())
		report, err := Run(context.Background(), 2, jobsOf(testSpec()), Options{
			Registry:     registryOf(RegistryConfig{}, worker.URL),
			Dir:          dir,
			Client:       tr.Client(),
			MaxRetries:   -1,
			AllowPartial: true,
		})
		if err != nil {
			t.Fatalf("allow_partial run failed outright: %v", err)
		}
		if report.Degraded == nil || report.Curve != report.Degraded.Curve {
			t.Fatal("run did not degrade")
		}
		d := report.Degraded
		if d.CoveredFraction <= 0 || d.CoveredFraction >= 1 {
			t.Fatalf("degraded covered fraction %v, want partial coverage", d.CoveredFraction)
		}
		if len(d.MissingShards) != 1 || d.MissingShards[0] != 1 {
			t.Fatalf("degraded missing shards %v, want [1]", d.MissingShards)
		}
	})
}

// spoolShard derives one shard locally into the spool, standing in for
// a previous coordinator's completed work.
func spoolShard(t *testing.T, dir string, index, count int) {
	t.Helper()
	job, err := testSpec().Compile(shard.Plan{Index: index, Count: count}, workload.Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: ShardPath(dir, index, count)}); err != nil {
		t.Fatal(err)
	}
}
