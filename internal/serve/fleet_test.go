package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/shard"
)

// gemmWant computes the single-process reference curve for an MxKxN
// GEMM, serialized for byte-identity checks.
func gemmWant(t *testing.T, m, k, n int64) string {
	t.Helper()
	e := einsum.GEMM(fmt.Sprintf("gemm_%dx%dx%d", m, k, n), m, k, n)
	data, err := json.Marshal(bound.Derive(e, bound.Options{Workers: 2}).Curve)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// forwardShard relays a dispatch body to a real worker server and copies
// its response back — the building block for scripted fleet members that
// stay protocol-exact.
func forwardShard(t *testing.T, w http.ResponseWriter, backend string, body []byte) {
	t.Helper()
	resp, err := http.Post(backend+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"forward failed"}}`, http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// TestFleetServeByteIdentity is the tentpole acceptance end to end: a
// coordinator server dispatching to two real worker servers over HTTP
// answers /v1/curve byte-identically to a single-process derivation, for
// N in {2, 4}, and both sides' /stats counters move.
func TestFleetServeByteIdentity(t *testing.T) {
	w1s, w1 := newTestServer(t, Config{WorkerDir: t.TempDir()})
	w2s, w2 := newTestServer(t, Config{WorkerDir: t.TempDir()})
	cases := []struct {
		shards  int
		m, k, n int64
	}{
		{2, 32, 24, 16},
		{4, 32, 16, 24},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("n=%d", tc.shards), func(t *testing.T) {
			spool := t.TempDir()
			cs, ts := newTestServer(t, Config{
				SpoolDir:     spool,
				FleetWorkers: []string{w1.URL, w2.URL},
			})
			body := fmt.Sprintf(`{"gemm":{"m":%d,"k":%d,"n":%d},"shards":%d,"timeout_ms":60000}`,
				tc.m, tc.k, tc.n, tc.shards)
			status, data := postCurve(t, ts.URL, body)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, data)
			}
			env := decodeEnvelope(t, data)
			if want := gemmWant(t, tc.m, tc.k, tc.n); string(env.Curve) != want {
				t.Fatalf("fleet-served curve differs from bound.Derive\n got %s\nwant %s", env.Curve, want)
			}
			st := cs.Snapshot()
			if st.FleetDispatches < int64(tc.shards) {
				t.Fatalf("fleet_dispatches %d, want >= %d", st.FleetDispatches, tc.shards)
			}
			// The successful derivation's spool is cleaned up.
			if dirs, err := filepath.Glob(filepath.Join(spool, "*")); err != nil || len(dirs) != 0 {
				t.Fatalf("spool not cleaned after exact fleet merge: %v (err=%v)", dirs, err)
			}
			// And served again, it is a cache hit: no new dispatches.
			if status, data := postCurve(t, ts.URL, body); status != http.StatusOK || !decodeEnvelope(t, data).Cached {
				t.Fatalf("repeat request not a cache hit: %d: %s", status, data)
			}
			if got := cs.Snapshot().FleetDispatches; got != st.FleetDispatches {
				t.Fatalf("cache hit dispatched shards: %d -> %d", st.FleetDispatches, got)
			}
		})
	}
	if w1s.Snapshot().WorkerShards+w2s.Snapshot().WorkerShards < 6 {
		t.Fatalf("workers completed %d+%d shards, want >= 6 total",
			w1s.Snapshot().WorkerShards, w2s.Snapshot().WorkerShards)
	}
}

// TestFleetServeKillAWorker kills a live worker server mid-derivation:
// its in-flight shards die with the process (connection errors and 503
// draining with Retry-After), the coordinator redispatches them on the
// surviving worker — as retries or as polite deferrals, depending on
// which rejection each dispatch observed — and the final curve is still
// byte-identical.
func TestFleetServeKillAWorker(t *testing.T) {
	var killOnce sync.Once
	var doomed *Server
	ds, dts := newTestServer(t, Config{
		WorkerDir:       t.TempDir(),
		CheckpointEvery: 3,
		OnCheckpoint: func(shard.Manifest) {
			killOnce.Do(func() { doomed.Close() })
		},
	})
	doomed = ds
	_, wts := newTestServer(t, Config{WorkerDir: t.TempDir()})

	cs, ts := newTestServer(t, Config{
		SpoolDir:        t.TempDir(),
		CheckpointEvery: 3, // forwarded stride: the doomed worker flushes (and dies) early
		FleetWorkers:    []string{dts.URL, wts.URL},
	})
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":4,"timeout_ms":60000}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	env := decodeEnvelope(t, data)
	if want := gemmWant(t, 32, 24, 16); string(env.Curve) != want {
		t.Fatalf("curve after worker kill differs from bound.Derive\n got %s\nwant %s", env.Curve, want)
	}
	if st := cs.Snapshot(); st.FleetRetries+st.FleetDeferrals == 0 {
		t.Fatal("killed worker cost no retries or deferrals — it was never dispatched to")
	}
}

// TestFleetServeKillCoordinatorResume kills the coordinator server after
// exactly one shard has landed in its spool, then hands the spool to a
// fresh coordinator: ResumeOrphans finishes the derivation through the
// fleet, honoring the spooled shard without re-dispatching it, and the
// first client request after recovery is a byte-identical cache hit.
func TestFleetServeKillCoordinatorResume(t *testing.T) {
	spool := t.TempDir()
	ws, wts := newTestServer(t, Config{WorkerDir: t.TempDir()})

	// The first coordinator's fleet: shard 0 is served (forwarded to the
	// real worker); every other shard blocks until the coordinator dies.
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, `{"error":{"code":"invalid_request","message":"torn body"}}`, http.StatusBadRequest)
			return
		}
		var req ShardRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, `{"error":{"code":"invalid_request","message":"bad dispatch"}}`, http.StatusBadRequest)
			return
		}
		if req.ShardIndex == 0 {
			forwardShard(t, w, wts.URL, body)
			return
		}
		<-r.Context().Done() // hold the dispatch until the coordinator is killed
	}))
	defer gate.Close()

	var s1 *Server
	var killOnce sync.Once
	srv1, ts1 := newTestServer(t, Config{
		SpoolDir:     spool,
		FleetWorkers: []string{gate.URL},
	})
	s1 = srv1
	// Kill the coordinator the moment shard 0's partial is spooled.
	watchCtx, stopWatch := context.WithCancel(context.Background())
	defer stopWatch()
	go func() {
		for watchCtx.Err() == nil {
			if m, _ := filepath.Glob(filepath.Join(spool, "*", "shard-1-of-2.json")); len(m) > 0 {
				killOnce.Do(func() { s1.Close() })
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	body := `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"timeout_ms":60000}`
	if status, data := postCurve(t, ts1.URL, body); status != http.StatusServiceUnavailable {
		t.Fatalf("killed coordinator: status %d, want 503: %s", status, data)
	}

	// The orphan is self-describing and keeps the completed shard.
	specs, err := filepath.Glob(filepath.Join(spool, "*", spoolSpecFile))
	if err != nil || len(specs) != 1 {
		t.Fatalf("%d spool spec.json files after kill (err=%v), want 1", len(specs), err)
	}
	partial, err := shard.ReadPartial(nil, filepath.Join(filepath.Dir(specs[0]), "shard-1-of-2.json"))
	if err != nil {
		t.Fatalf("spooled shard 0 unreadable after kill: %v", err)
	}
	if !partial.Manifest.Complete() {
		t.Fatal("spooled shard 0 is incomplete")
	}

	// A fresh coordinator with a healthy fleet: ResumeOrphans completes
	// the derivation, dispatching only the missing shard.
	before := ws.Snapshot().WorkerShards
	srv2, ts2 := newTestServer(t, Config{
		SpoolDir:     spool,
		FleetWorkers: []string{wts.URL},
	})
	n, err := srv2.ResumeOrphans(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d orphans, want 1", n)
	}
	if got := ws.Snapshot().WorkerShards - before; got != 1 {
		t.Fatalf("resume dispatched %d shards to the worker, want exactly 1 (shard 0 resumes from the spool)", got)
	}
	st := srv2.Snapshot()
	if st.FleetDispatches == 0 {
		t.Fatal("resume did not go through the fleet")
	}

	status, data := postCurve(t, ts2.URL, body)
	if status != http.StatusOK {
		t.Fatalf("post-recovery request: status %d: %s", status, data)
	}
	env := decodeEnvelope(t, data)
	if !env.Cached {
		t.Fatal("post-recovery request missed the cache")
	}
	if want := gemmWant(t, 32, 24, 16); string(env.Curve) != want {
		t.Fatalf("recovered fleet curve differs from bound.Derive\n got %s\nwant %s", env.Curve, want)
	}
	if _, err := os.Stat(filepath.Dir(specs[0])); !os.IsNotExist(err) {
		t.Fatalf("completed fleet spool not cleaned (err=%v)", err)
	}
}

// TestFleetServeDegraded drives the coordinator's allow_partial path: a
// shard every fleet member rejects permanently degrades the response to
// an annotated 206, never an error or a corrupt artifact.
func TestFleetServeDegraded(t *testing.T) {
	_, wts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	// Shard 1 always fails server-side; everything else is served.
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, `{"error":{"code":"invalid_request","message":"torn body"}}`, http.StatusBadRequest)
			return
		}
		var req ShardRequest
		if err := json.Unmarshal(body, &req); err != nil {
			http.Error(w, `{"error":{"code":"invalid_request","message":"bad dispatch"}}`, http.StatusBadRequest)
			return
		}
		if req.ShardIndex == 1 {
			http.Error(w, `{"error":{"code":"internal","message":"shard 2 always fails"}}`, http.StatusInternalServerError)
			return
		}
		forwardShard(t, w, wts.URL, body)
	}))
	defer flaky.Close()

	spool := t.TempDir()
	_, ts := newTestServer(t, Config{
		SpoolDir:     spool,
		ShardRetries: -1,
		FleetWorkers: []string{flaky.URL},
	})
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"allow_partial":true,"timeout_ms":60000}`)
	if status != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", status, data)
	}
	var env struct {
		Degraded        bool    `json:"degraded"`
		CoveredFraction float64 `json:"covered_fraction"`
		MissingShards   []int   `json:"missing_shards"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Degraded || env.CoveredFraction <= 0 || env.CoveredFraction >= 1 {
		t.Fatalf("degraded envelope degraded=%v covered=%v, want degraded with partial coverage", env.Degraded, env.CoveredFraction)
	}
	if len(env.MissingShards) != 1 {
		t.Fatalf("missing_shards %v, want exactly one", env.MissingShards)
	}
	// The spool survives as the resume point, holding only valid partials.
	dirs, err := filepath.Glob(filepath.Join(spool, "*", "shard-*.json"))
	if err != nil || len(dirs) == 0 {
		t.Fatalf("degraded run kept no spooled partials (err=%v)", err)
	}
	for _, p := range dirs {
		if _, err := shard.ReadPartial(nil, p); err != nil {
			t.Fatalf("spool file %s is not a valid partial: %v", p, err)
		}
	}
}

// TestFleetServeUsesRequestStride pins the CheckpointEvery wire field:
// a coordinator-chosen stride reaches the worker's shard run.
func TestFleetServeUsesRequestStride(t *testing.T) {
	var flushes atomic.Int64
	_, wts := newTestServer(t, Config{
		WorkerDir: t.TempDir(),
		OnCheckpoint: func(m shard.Manifest) {
			if !m.Complete() {
				flushes.Add(1)
			}
		},
	})
	_, ts := newTestServer(t, Config{
		SpoolDir:        t.TempDir(),
		CheckpointEvery: 2,
		FleetWorkers:    []string{wts.URL},
	})
	if status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"timeout_ms":60000}`); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if flushes.Load() == 0 {
		t.Fatal("worker never flushed mid-shard: the dispatched checkpoint stride was ignored")
	}
}

// TestFleetServeMembershipAndStats exercises runtime membership reload
// and the /stats fleet gauges: a coordinator born with no fleet derives
// locally, picks up a worker via SetFleetWorkers and dispatches to it,
// exports membership gauges and per-worker detail over /stats, and
// falls back to local derivation when the membership empties again.
func TestFleetServeMembershipAndStats(t *testing.T) {
	ws, wts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	cs, ts := newTestServer(t, Config{SpoolDir: t.TempDir()})

	// Empty membership: sharded requests derive locally, no gauges.
	if status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"timeout_ms":60000}`); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if got := ws.Snapshot().WorkerShards; got != 0 {
		t.Fatalf("empty membership dispatched %d shards to the worker", got)
	}
	if st := cs.Snapshot(); st.FleetWorkersGauges != nil {
		t.Fatalf("empty membership exported fleet gauges: %+v", st.FleetWorkersGauges)
	}

	// The worker joins at runtime; the next sharded request reaches it.
	if added, removed := cs.SetFleetWorkers([]string{wts.URL}); added != 1 || removed != 0 {
		t.Fatalf("SetFleetWorkers = (%d added, %d removed), want (1, 0)", added, removed)
	}
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":16,"n":24},"shards":2,"timeout_ms":60000}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if want := gemmWant(t, 32, 16, 24); string(decodeEnvelope(t, data).Curve) != want {
		t.Fatal("fleet-served curve after membership reload differs from bound.Derive")
	}
	if got := ws.Snapshot().WorkerShards; got != 2 {
		t.Fatalf("worker completed %d shards after joining, want 2", got)
	}

	// /stats exports the membership gauges and per-worker detail.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if g := st.FleetWorkersGauges; g == nil || g.Total != 1 || g.Healthy != 1 {
		t.Fatalf("fleet_workers gauges = %+v, want 1 total, 1 healthy", st.FleetWorkersGauges)
	}
	if len(st.FleetWorkerDetail) != 1 || st.FleetWorkerDetail[0].URL != wts.URL {
		t.Fatalf("fleet_worker_detail = %+v, want exactly the joined worker", st.FleetWorkerDetail)
	}
	if d := st.FleetWorkerDetail[0]; d.Dispatches < 2 || d.Completions < 2 ||
		d.Breaker != "closed" || d.ShardsPerSec <= 0 {
		t.Fatalf("worker detail %+v, want >= 2 dispatches and completions, a closed breaker, and positive throughput", d)
	}

	// The membership empties again: requests degrade to local derivation.
	if added, removed := cs.SetFleetWorkers(nil); added != 0 || removed != 1 {
		t.Fatalf("SetFleetWorkers(nil) = (%d added, %d removed), want (0, 1)", added, removed)
	}
	before := ws.Snapshot().WorkerShards
	if status, data := postCurve(t, ts.URL, `{"gemm":{"m":16,"k":24,"n":32},"shards":2,"timeout_ms":60000}`); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if got := ws.Snapshot().WorkerShards; got != before {
		t.Fatalf("emptied membership still dispatched shards: %d -> %d", before, got)
	}
}
