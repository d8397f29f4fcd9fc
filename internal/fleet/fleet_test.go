package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/shard"
	"repro/internal/workload"
)

// testSpec is the small bound workload the fleet tests dispatch.
func testSpec() *workload.Spec {
	return workload.NewBound(einsum.GEMM("gemm_32x24x16", 32, 24, 16), bound.Options{})
}

// jobsOf compiles spec's shard jobs — the mkJob every Run caller passes.
func jobsOf(spec *workload.Spec) func(shard.Plan) (shard.Job, error) {
	return func(p shard.Plan) (shard.Job, error) { return spec.Compile(p, workload.Exec{Workers: 2}) }
}

// registryOf builds the worker membership a test run dispatches through
// (Options.Registry) — the one way fleet and chaos tests name workers.
func registryOf(cfg RegistryConfig, urls ...string) *Registry {
	return NewRegistry(urls, cfg)
}

// wantCurve is the single-process reference curve, serialized.
func wantCurve(t *testing.T) string {
	t.Helper()
	data, err := json.Marshal(bound.Derive(einsum.GEMM("gemm_32x24x16", 32, 24, 16), bound.Options{Workers: 2}).Curve)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// deriveShardBytes implements the worker half of the protocol
// in-process (the serve endpoint is the production implementation; these
// tests cannot import serve, which imports this package): decode the
// spec, compile the plan slot, run the slice checkpointed, return the
// partial-frontier file bytes.
func deriveShardBytes(ctx context.Context, dir string, req *ShardRequest) ([]byte, error) {
	spec, err := workload.Decode(req.Spec)
	if err != nil {
		return nil, err
	}
	plan := shard.Plan{Index: req.ShardIndex, Count: req.ShardCount}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	job, err := spec.Compile(plan, workload.Exec{Workers: 2})
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", req.ShardIndex+1, req.ShardCount))
	if _, _, err := shard.Run(ctx, job, shard.RunOptions{Path: path, CheckpointEvery: req.CheckpointEvery}); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// decodeShardRequest reads a dispatch body.
func decodeShardRequest(t *testing.T, r *http.Request) *ShardRequest {
	t.Helper()
	var req ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		t.Errorf("worker: decoding dispatch: %v", err)
	}
	return &req
}

// newWorker starts a protocol-conformant worker; transform, when
// non-nil, rewrites the valid response bytes before they are sent (the
// fault-injection hook).
func newWorker(t *testing.T, transform func(w http.ResponseWriter, data []byte)) *httptest.Server {
	t.Helper()
	dir := t.TempDir()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := decodeShardRequest(t, r)
		data, err := deriveShardBytes(r.Context(), dir, req)
		if err != nil {
			http.Error(w, `{"error":{"code":"internal","message":"test worker failed"}}`, http.StatusInternalServerError)
			return
		}
		if transform != nil {
			transform(w, data)
			return
		}
		w.Write(data)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// assertCleanSpool verifies the never-a-corrupt-artifact post-condition:
// every file in the spool is either a valid partial frontier or an
// explicitly named quarantine file.
func assertCleanSpool(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		name := ent.Name()
		if strings.Contains(name, ".quarantine") || strings.Contains(name, ".corrupt") {
			continue
		}
		if _, err := shard.ReadPartial(nil, filepath.Join(dir, name)); err != nil {
			t.Errorf("spool file %s is neither a valid partial nor quarantined: %v", name, err)
		}
	}
}

// TestFleetParity is the core acceptance: a fleet run over two workers
// merges to the byte-identical single-process curve, for N in {2, 4}.
func TestFleetParity(t *testing.T) {
	want := wantCurve(t)
	w1, w2 := newWorker(t, nil), newWorker(t, nil)
	for _, n := range []int{2, 4} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			reg := registryOf(RegistryConfig{}, w1.URL, w2.URL)
			report, err := Run(context.Background(), n, jobsOf(testSpec()), Options{
				Registry: reg,
				Dir:      dir,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(report.Curve)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != want {
				t.Fatalf("fleet curve differs from single-process derive\n got %s\nwant %s", got, want)
			}
			if reg.Totals().Dispatches < int64(n) {
				t.Fatalf("dispatches %d, want >= %d", reg.Totals().Dispatches, n)
			}
			assertCleanSpool(t, dir)
		})
	}
}

// TestFleetResumesSpooledPartials pins the killed-coordinator contract:
// a shard already complete in the spool is honored without a dispatch —
// even when every worker would refuse to re-derive it.
func TestFleetResumesSpooledPartials(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	// A previous coordinator's completed shard 0 of 2.
	job, err := spec.Compile(shard.Plan{Index: 0, Count: 2}, workload.Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: ShardPath(dir, 0, 2)}); err != nil {
		t.Fatal(err)
	}

	// The worker refuses shard 0: only resume can complete it.
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := decodeShardRequest(t, r)
		if req.ShardIndex == 0 {
			http.Error(w, `{"error":{"code":"internal","message":"must not re-dispatch shard 0"}}`, http.StatusInternalServerError)
			return
		}
		wdir := t.TempDir()
		data, err := deriveShardBytes(r.Context(), wdir, req)
		if err != nil {
			http.Error(w, `{"error":{"code":"internal","message":"worker failed"}}`, http.StatusInternalServerError)
			return
		}
		w.Write(data)
	}))
	defer refuse.Close()

	report, err := Run(context.Background(), 2, jobsOf(spec), Options{
		Registry: registryOf(RegistryConfig{}, refuse.URL),
		Dir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !report.Shards[0].Resumed {
		t.Fatal("shard 0 was not resumed from the spool")
	}
	if report.Shards[0].Attempts != 0 {
		t.Fatalf("resumed shard was dispatched %d times", report.Shards[0].Attempts)
	}
	got, err := json.Marshal(report.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCurve(t) {
		t.Fatal("resumed fleet curve differs from single-process derive")
	}
}

// TestFleetInterruptAndRerun pins coordinator cancellation: a cancelled
// run reports Interrupted without corrupting the spool, and a rerun on
// the same directory completes with the exact curve.
func TestFleetInterruptAndRerun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	blocked := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body: the server only observes the coordinator hanging
		// up (r.Context cancellation) once the request is fully read.
		io.Copy(io.Discard, r.Body)
		cancel() // the dispatch is in flight: kill the coordinator now
		<-r.Context().Done()
	}))
	defer blocked.Close()

	dir := t.TempDir()
	report, err := Run(ctx, 2, jobsOf(testSpec()), Options{
		Registry: registryOf(RegistryConfig{}, blocked.URL),
		Dir:      dir,
	})
	if err == nil || !report.Interrupted {
		t.Fatalf("cancelled run: err=%v interrupted=%v", err, report.Interrupted)
	}
	assertCleanSpool(t, dir)

	good := newWorker(t, nil)
	report, err = Run(context.Background(), 2, jobsOf(testSpec()), Options{
		Registry: registryOf(RegistryConfig{}, good.URL),
		Dir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(report.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCurve(t) {
		t.Fatal("rerun curve differs from single-process derive")
	}
}

// TestFleetKillAWorker pins retry-elsewhere: one fleet member is dead
// (connection refused), the run still completes exactly.
func TestFleetKillAWorker(t *testing.T) {
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead.Close() // a worker that died: connections are refused
	good := newWorker(t, nil)

	dir := t.TempDir()
	reg := registryOf(RegistryConfig{}, dead.URL, good.URL)
	report, err := Run(context.Background(), 4, jobsOf(testSpec()), Options{
		Registry:    reg,
		Dir:         dir,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(report.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCurve(t) {
		t.Fatal("curve with a dead worker differs from single-process derive")
	}
	if reg.Totals().Retries == 0 {
		t.Fatal("dead worker cost no retries — it was never dispatched to")
	}
	assertCleanSpool(t, dir)
}

// TestFleetSpeculation pins straggler re-execution: with one slow and
// one idle worker, the duplicate dispatch wins and the straggler's late
// response is discarded.
func TestFleetSpeculation(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done() // straggle until the coordinator gives up
	}))
	defer slow.Close()
	fast := newWorker(t, nil)

	dir := t.TempDir()
	reg := registryOf(RegistryConfig{PerWorker: 1}, slow.URL, fast.URL)
	report, err := Run(context.Background(), 1, jobsOf(testSpec()), Options{
		Registry:       reg,
		Dir:            dir,
		SpeculateAfter: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := report.Shards[0]
	if st.Worker != fast.URL {
		t.Fatalf("winner %q, want the speculative worker %q", st.Worker, fast.URL)
	}
	if st.Speculated != 1 || reg.Totals().Speculations != 1 {
		t.Fatalf("speculated %d (total %d), want 1", st.Speculated, reg.Totals().Speculations)
	}
	if st.Attempts != 2 {
		t.Fatalf("attempts %d, want 2 (primary + speculative)", st.Attempts)
	}
	got, err := json.Marshal(report.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCurve(t) {
		t.Fatal("speculative curve differs from single-process derive")
	}
}

// TestFleetFaultMatrix drives the coordinator through the response
// fault classes — torn partial, wrong-digest partial, draining worker,
// mid-flight worker death — and requires each to end in retry-elsewhere
// with an exact merge and a clean spool, never a corrupt artifact.
func TestFleetFaultMatrix(t *testing.T) {
	want := wantCurve(t)
	cases := []struct {
		name           string
		faulty         func(t *testing.T) *httptest.Server
		wantQuarantine bool
		wantDeferral   bool
	}{
		{
			name: "torn partial",
			faulty: func(t *testing.T) *httptest.Server {
				return newWorker(t, func(w http.ResponseWriter, data []byte) {
					w.Write(data[:len(data)/2]) // torn mid-JSON
				})
			},
			wantQuarantine: true,
		},
		{
			name: "wrong-digest partial",
			faulty: func(t *testing.T) *httptest.Server {
				dir := t.TempDir()
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					req := decodeShardRequest(t, r)
					// A structurally valid, complete partial — of a different
					// workload. Only digest validation can catch it.
					other, err := workload.NewBound(einsum.GEMM("gemm_16x16x16", 16, 16, 16), bound.Options{}).Encode()
					if err != nil {
						t.Error(err)
					}
					req.Spec = other
					data, err := deriveShardBytes(r.Context(), dir, req)
					if err != nil {
						http.Error(w, "{}", http.StatusInternalServerError)
						return
					}
					w.Write(data)
				}))
				t.Cleanup(ts.Close)
				return ts
			},
			wantQuarantine: true,
		},
		{
			// A draining 503 with a Retry-After hint is a polite deferral:
			// the worker is held out of allocation, and no retry budget or
			// backoff is spent.
			name: "draining worker",
			faulty: func(t *testing.T) *httptest.Server {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Retry-After", "1")
					http.Error(w, `{"error":{"code":"draining","message":"worker is draining"}}`, http.StatusServiceUnavailable)
				}))
				t.Cleanup(ts.Close)
				return ts
			},
			wantDeferral: true,
		},
		{
			// An unhinted 503 stays on the generic retry-elsewhere path.
			name: "draining worker without hint",
			faulty: func(t *testing.T) *httptest.Server {
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					http.Error(w, `{"error":{"code":"draining","message":"worker is draining"}}`, http.StatusServiceUnavailable)
				}))
				t.Cleanup(ts.Close)
				return ts
			},
		},
		{
			name: "mid-flight death",
			faulty: func(t *testing.T) *httptest.Server {
				return newWorker(t, func(w http.ResponseWriter, data []byte) {
					w.Header().Set("Content-Length", fmt.Sprint(len(data)))
					w.Write(data[:len(data)/2])
					panic(http.ErrAbortHandler) // connection dies mid-body
				})
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			faulty := tc.faulty(t)
			good := newWorker(t, nil)
			dir := t.TempDir()
			reg := registryOf(RegistryConfig{}, faulty.URL, good.URL)
			report, err := Run(context.Background(), 2, jobsOf(testSpec()), Options{
				Registry:    reg,
				Dir:         dir,
				BaseBackoff: time.Millisecond,
				MaxBackoff:  2 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			got, merr := json.Marshal(report.Curve)
			if merr != nil {
				t.Fatal(merr)
			}
			if string(got) != want {
				t.Fatalf("curve under %s differs from single-process derive", tc.name)
			}
			if tc.wantDeferral {
				if reg.Totals().Deferrals == 0 {
					t.Fatalf("%s cost no deferrals — the deferring worker was never dispatched to", tc.name)
				}
				if reg.Totals().Retries != 0 {
					t.Fatalf("%s burned %d retries; a Retry-After deferral must not spend the budget", tc.name, reg.Totals().Retries)
				}
			} else if reg.Totals().Retries == 0 {
				t.Fatalf("%s cost no retries — the faulty worker was never dispatched to", tc.name)
			}
			if tc.wantQuarantine && reg.Totals().Quarantines == 0 {
				t.Fatalf("%s produced no quarantine", tc.name)
			}
			assertCleanSpool(t, dir)
		})
	}
}

// TestFleetRetryAfterRecovery is the draining-worker regression test: a
// worker that answers 503 + Retry-After while draining and then
// recovers must be waited out, not written off — the deferrals spend no
// retry budget (pinned by running with the budget at zero), and the run
// completes exactly once the worker comes back.
func TestFleetRetryAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	wdir := t.TempDir()
	var requests atomic.Int64
	const drainingFor = 5
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if requests.Add(1) <= drainingFor {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":{"code":"draining","message":"worker is draining"}}`, http.StatusServiceUnavailable)
			return
		}
		req := decodeShardRequest(t, r)
		data, err := deriveShardBytes(r.Context(), wdir, req)
		if err != nil {
			http.Error(w, `{"error":{"code":"internal","message":"test worker failed"}}`, http.StatusInternalServerError)
			return
		}
		w.Write(data)
	}))
	defer worker.Close()

	reg := registryOf(RegistryConfig{}, worker.URL)
	report, err := Run(context.Background(), 1, jobsOf(testSpec()), Options{
		Registry:   reg,
		Dir:        dir,
		MaxRetries: -1, // zero budget: any non-deferral retry would fail the run
	})
	if err != nil {
		t.Fatalf("run against a recovering worker failed: %v", err)
	}
	if reg.Totals().Deferrals != drainingFor {
		t.Fatalf("deferrals %d, want %d", reg.Totals().Deferrals, drainingFor)
	}
	if reg.Totals().Retries != 0 {
		t.Fatalf("retries %d; deferrals must not spend the budget", reg.Totals().Retries)
	}
	if report.Shards[0].Deferred != drainingFor {
		t.Fatalf("shard deferred count %d, want %d", report.Shards[0].Deferred, drainingFor)
	}
	got, err := json.Marshal(report.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCurve(t) {
		t.Fatal("curve after recovery differs from single-process derive")
	}
	// The deferring worker's breaker never tripped: a polite 503 is not a
	// health failure.
	if ws := reg.Snapshot()[0]; ws.Breaker != "closed" {
		t.Fatalf("worker breaker %q after deferrals, want closed", ws.Breaker)
	}
}

// TestFleetDegradedMerge pins the allow-partial path: a shard no worker
// will serve fails permanently, and the run degrades to an annotated
// partial merge instead of an error — with the spool kept clean.
func TestFleetDegradedMerge(t *testing.T) {
	dir := t.TempDir()
	wdir := t.TempDir()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := decodeShardRequest(t, r)
		if req.ShardIndex == 1 {
			http.Error(w, `{"error":{"code":"internal","message":"shard 2 always fails"}}`, http.StatusInternalServerError)
			return
		}
		data, err := deriveShardBytes(r.Context(), wdir, req)
		if err != nil {
			http.Error(w, "{}", http.StatusInternalServerError)
			return
		}
		w.Write(data)
	}))
	defer worker.Close()

	report, err := Run(context.Background(), 2, jobsOf(testSpec()), Options{
		Registry:     registryOf(RegistryConfig{}, worker.URL),
		Dir:          dir,
		MaxRetries:   -1,
		AllowPartial: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Degraded == nil {
		t.Fatal("no degraded merge")
	}
	if report.Degraded.Complete() {
		t.Fatal("degraded merge claims full coverage")
	}
	if len(report.Degraded.MissingShards) != 1 {
		t.Fatalf("missing shards %v, want exactly one", report.Degraded.MissingShards)
	}
	if !report.Degraded.Curve.Degraded {
		t.Fatal("degraded curve is not tainted")
	}
	assertCleanSpool(t, dir)

	// Without AllowPartial the same fleet must refuse.
	if _, err := Run(context.Background(), 2, jobsOf(testSpec()), Options{
		Registry:   registryOf(RegistryConfig{}, worker.URL),
		Dir:        t.TempDir(),
		MaxRetries: -1,
	}); err == nil {
		t.Fatal("permanent shard failure without AllowPartial did not fail the run")
	}
}

// TestFleetPermanentRejection pins fail-fast on deterministic worker
// rejections: a 400 burns no retry budget.
func TestFleetPermanentRejection(t *testing.T) {
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":{"code":"invalid_workload","message":"unknown kind"}}`, http.StatusBadRequest)
	}))
	defer worker.Close()

	report, err := Run(context.Background(), 1, jobsOf(testSpec()), Options{
		Registry: registryOf(RegistryConfig{}, worker.URL),
		Dir:      t.TempDir(),
	})
	if err == nil {
		t.Fatal("deterministic rejection did not fail the run")
	}
	if got := report.Shards[0].Attempts; got != 1 {
		t.Fatalf("dispatches %d, want 1 (no retries of a permanent rejection)", got)
	}
	var perm *PermanentError
	if !asPermanent(report.Shards[0].Err, &perm) {
		t.Fatalf("shard error %v does not wrap PermanentError", report.Shards[0].Err)
	}
	if perm.Code != "invalid_workload" {
		t.Fatalf("code %q, want invalid_workload", perm.Code)
	}
}

// asPermanent is errors.As without importing errors twice in the test.
func asPermanent(err error, target **PermanentError) bool {
	for err != nil {
		if pe, ok := err.(*PermanentError); ok {
			*target = pe
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}

// TestFleetQuarantinesForeignSpoolPartial pins the pre-scan: a complete
// partial of a different derivation sitting in a shard's slot is
// quarantined, then the slot is re-derived.
func TestFleetQuarantinesForeignSpoolPartial(t *testing.T) {
	dir := t.TempDir()
	other := workload.NewBound(einsum.GEMM("gemm_16x16x16", 16, 16, 16), bound.Options{})
	job, err := other.Compile(shard.Plan{Index: 0, Count: 2}, workload.Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: ShardPath(dir, 0, 2)}); err != nil {
		t.Fatal(err)
	}

	good := newWorker(t, nil)
	report, err := Run(context.Background(), 2, jobsOf(testSpec()), Options{
		Registry: registryOf(RegistryConfig{}, good.URL),
		Dir:      dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Shards[0].Quarantined) == 0 {
		t.Fatal("foreign spool partial was not quarantined")
	}
	got, err := json.Marshal(report.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantCurve(t) {
		t.Fatal("curve after quarantine differs from single-process derive")
	}
	if _, err := os.Stat(ShardPath(dir, 0, 2) + ".corrupt"); err != nil {
		t.Fatalf("quarantine file missing: %v", err)
	}
}

// TestAllocator unit-tests the registry's allocation preferences: the
// ranking pickLocked applies under the lock.
func TestAllocator(t *testing.T) {
	r := registryOf(RegistryConfig{PerWorker: 2}, "A", "B")
	now := time.Now()
	pick := func(avoid string, exclude map[string]bool) (string, bool) {
		r.mu.Lock()
		defer r.mu.Unlock()
		w, _, ok := r.pickLocked(avoid, exclude, now)
		return w, ok
	}
	if w, ok := pick("", nil); !ok || w != "A" {
		t.Fatalf("first pick %q, want A (listing order)", w)
	}
	if w, ok := pick("A", nil); !ok || w != "B" {
		t.Fatalf("avoid=A pick %q, want B", w)
	}
	r.members["B"].free = 0
	if w, ok := pick("A", nil); !ok || w != "A" {
		t.Fatalf("avoid=A with B exhausted pick %q, want A (avoid is better than deadlock)", w)
	}
	if _, ok := pick("", map[string]bool{"A": true}); ok {
		t.Fatal("exclude=A with B exhausted picked a worker")
	}
	r.members["A"].free, r.members["B"].free = 1, 2
	if w, _ := pick("", nil); w != "B" {
		t.Fatalf("unobserved tie pick %q, want B (2 free slots vs 1)", w)
	}

	// Throughput beats free slots once both workers have history: A at 10
	// shards/sec outranks B at 1 despite fewer free slots.
	r.members["A"].completions, r.members["A"].ewma = 5, 10
	r.members["B"].completions, r.members["B"].ewma = 5, 1
	if w, _ := pick("", nil); w != "A" {
		t.Fatalf("throughput pick %q, want A (10 shards/sec vs 1)", w)
	}
	// An unobserved worker is optimistically ranked above any measured one.
	r.Add("C")
	if w, _ := pick("", nil); w != "C" {
		t.Fatalf("new-joiner pick %q, want C (unobserved => +Inf score)", w)
	}
	r.Remove("C")

	// A Retry-After hold excludes the worker until it expires.
	r.members["A"].holdUntil = now.Add(time.Minute)
	if w, _ := pick("", nil); w != "B" {
		t.Fatalf("held-A pick %q, want B", w)
	}
	r.members["A"].holdUntil = time.Time{}

	// An open breaker excludes the worker during cooldown, then admits
	// exactly one half-open probe that outranks everything.
	r.members["A"].br.open(now)
	if w, _ := pick("", nil); w != "B" {
		t.Fatalf("open-breaker pick %q, want B", w)
	}
	r.members["A"].br.openedAt = now.Add(-2 * DefaultBreakerCooldown)
	r.mu.Lock()
	w, probe, ok := r.pickLocked("", nil, now)
	r.mu.Unlock()
	if !ok || w != "A" || !probe {
		t.Fatalf("cooldown-elapsed pick %q probe=%v, want half-open probe on A", w, probe)
	}
}
