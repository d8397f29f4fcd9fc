package serve

// The disk-tier suite: the server's durable curve store must survive
// restarts (warm answers with zero re-derivations), share a directory
// with CLI warmers, degrade to memory-only on any storage failure, and
// never let a damaged or degraded entry reach a client.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/bound"
	"repro/internal/cliutil"
	"repro/internal/einsum"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// countDerives wraps every derivation to count engine invocations: the
// yardstick for "served without re-deriving".
func countDerives(n *atomic.Int64) func(*derivation, deriveFn) deriveFn {
	return func(d *derivation, fn deriveFn) deriveFn {
		return func(ctx context.Context) (deriveOut, error) {
			n.Add(1)
			return fn(ctx)
		}
	}
}

// storeGauges fetches the store-related /stats gauges.
type storeGauges struct {
	StoreHits     int64        `json:"store_hits"`
	StoreWrites   int64        `json:"store_writes"`
	StoreDisabled bool         `json:"store_disabled"`
	Store         *store.Stats `json:"store"`
}

func getStoreGauges(t *testing.T, url string) storeGauges {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var g storeGauges
	if err := json.NewDecoder(resp.Body).Decode(&g); err != nil {
		t.Fatal(err)
	}
	return g
}

// TestRestartWarmDiskTier is the restart-warmth acceptance path: derive
// once, kill the server, start a fresh process on the same store
// directory, and the repeated request is a disk hit — byte-identical
// curve, reported cached, zero engine invocations.
func TestRestartWarmDiskTier(t *testing.T) {
	dir := t.TempDir()
	body := `{"gemm":{"m":32,"k":24,"n":16}}`

	var derivesA atomic.Int64
	sA := New(Config{Workers: 2, StoreDir: dir, deriveWrap: countDerives(&derivesA)})
	tsA := httptest.NewServer(sA.Handler())
	status, data1 := postCurve(t, tsA.URL, body)
	if status != http.StatusOK {
		t.Fatalf("first life status %d: %s", status, data1)
	}
	env1 := decodeEnvelope(t, data1)
	if derivesA.Load() != 1 {
		t.Fatalf("first life made %d derivations, want 1", derivesA.Load())
	}
	if g := getStoreGauges(t, tsA.URL); g.StoreWrites != 1 {
		t.Fatalf("store_writes = %d after first derivation, want 1", g.StoreWrites)
	}
	tsA.Close()
	sA.Close()

	var derivesB atomic.Int64
	_, tsB := newTestServer(t, Config{StoreDir: dir, deriveWrap: countDerives(&derivesB)})
	status, data2 := postCurve(t, tsB.URL, body)
	if status != http.StatusOK {
		t.Fatalf("second life status %d: %s", status, data2)
	}
	env2 := decodeEnvelope(t, data2)
	if !env2.Cached {
		t.Fatal("restart-warm response not reported cached")
	}
	if string(env2.Curve) != string(env1.Curve) {
		t.Fatalf("restart-warm curve differs from the originally derived one\n got %s\nwant %s",
			env2.Curve, env1.Curve)
	}
	if derivesB.Load() != 0 {
		t.Fatalf("second life re-derived %d time(s), want 0 (disk hit)", derivesB.Load())
	}
	g := getStoreGauges(t, tsB.URL)
	if g.StoreHits != 1 {
		t.Fatalf("store_hits = %d, want 1", g.StoreHits)
	}
	if g.Store == nil || g.Store.Entries != 1 {
		t.Fatalf("store gauges %+v, want 1 entry", g.Store)
	}

	// The disk hit republished into the memory tier: a third request hits
	// memory, not disk.
	status, data3 := postCurve(t, tsB.URL, body)
	if status != http.StatusOK {
		t.Fatalf("third request status %d", status)
	}
	if string(decodeEnvelope(t, data3).Curve) != string(env1.Curve) {
		t.Fatal("memory-republished curve differs")
	}
	if got := getStoreGauges(t, tsB.URL).StoreHits; got != 1 {
		t.Fatalf("store_hits = %d after memory hit, want still 1", got)
	}
}

// TestWarmerSharesStoreWithServer: a CLI warmer (cliutil.StoreRun on
// the same directory, out of process from the server's point of view)
// pre-derives a workload; the server then serves it without ever
// invoking its engine — and keeps doing so while the warmer works the
// directory concurrently.
func TestWarmerSharesStoreWithServer(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Same canonical workload the request body maps to.
	spec := workload.NewBound(einsum.GEMM("gemm_32x24x16", 32, 24, 16), bound.Options{})
	warm, err := cliutil.StoreRun(context.Background(), st, spec, workload.Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Hit {
		t.Fatal("first warm reported a hit on an empty store")
	}
	want, err := json.Marshal(warm.Curve)
	if err != nil {
		t.Fatal(err)
	}

	var derives atomic.Int64
	_, ts := newTestServer(t, Config{StoreDir: dir, deriveWrap: countDerives(&derives)})
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	env := decodeEnvelope(t, data)
	if !env.Cached {
		t.Fatal("warmed workload not reported cached")
	}
	if string(env.Curve) != string(want) {
		t.Fatal("served curve differs from the warmer's derivation")
	}
	if derives.Load() != 0 {
		t.Fatalf("server derived %d time(s) for a warmed workload, want 0", derives.Load())
	}

	// Warmer and server race on the directory (run under -race): the
	// warmer derives fresh workloads while clients replay the warmed one.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			e := einsum.GEMM(fmt.Sprintf("gemm_8x8x%d", 8+i), 8, 8, int64(8+i))
			if _, err := cliutil.StoreRun(context.Background(), st,
				workload.NewBound(e, bound.Options{}), workload.Exec{Workers: 2}); err != nil {
				t.Errorf("concurrent warm: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 5; i++ {
			status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16}}`)
			if status != http.StatusOK {
				t.Errorf("concurrent serve status %d", status)
				return
			}
			if string(decodeEnvelope(t, data).Curve) != string(want) {
				t.Error("concurrent serve returned a different curve")
				return
			}
		}
	}()
	wg.Wait()

	// And the server can serve what the concurrent warmer just derived.
	var after atomic.Int64
	_, ts2 := newTestServer(t, Config{StoreDir: dir, deriveWrap: countDerives(&after)})
	status, _ = postCurve(t, ts2.URL, `{"gemm":{"m":8,"k":8,"n":9}}`)
	if status != http.StatusOK {
		t.Fatalf("warmed-fresh workload status %d", status)
	}
	if after.Load() != 0 {
		t.Fatalf("server re-derived a workload the warmer had persisted (%d derivations)", after.Load())
	}
}

// TestStoreOpenFailureDegradesToMemory: a store directory that cannot
// be opened (writability probe fails) must not take the server down —
// requests keep working memory-only and /stats says store_disabled.
func TestStoreOpenFailureDegradesToMemory(t *testing.T) {
	ffs := &shard.FaultFS{Fail: func(op shard.Op, _ string) error {
		if op == shard.OpCreateTemp {
			return syscall.EACCES
		}
		return nil
	}}
	var logged atomic.Int64
	s, ts := newTestServer(t, Config{
		StoreDir: t.TempDir(),
		fs:       ffs,
		Logf: func(format string, _ ...any) {
			if strings.Contains(format, "curve store disabled") {
				logged.Add(1)
			}
		},
	})
	if s.disk != nil {
		t.Fatal("server kept a disk tier whose directory failed to open")
	}
	if logged.Load() != 1 {
		t.Fatalf("store-disabled logged %d time(s), want exactly once", logged.Load())
	}
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":16,"k":8,"n":8}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d without a store: %s", status, data)
	}
	g := getStoreGauges(t, ts.URL)
	if !g.StoreDisabled {
		t.Fatal("/stats does not report store_disabled for a failed open")
	}
	if g.Store != nil {
		t.Fatal("/stats reports store gauges for a tier that never opened")
	}
}

// TestStoreENOSPCDegradesLive: a disk that fills up after the server
// started disables the tier mid-flight; derivations and responses are
// unaffected, and /stats flips store_disabled.
func TestStoreENOSPCDegradesLive(t *testing.T) {
	ffs := &shard.FaultFS{Fail: func(op shard.Op, _ string) error {
		if op == shard.OpWrite {
			return syscall.ENOSPC
		}
		return nil
	}}
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), fs: ffs})
	if s.disk == nil {
		t.Fatal("disk tier missing before the disk fills")
	}
	body := `{"gemm":{"m":16,"k":8,"n":8}}`
	status, data1 := postCurve(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d on a full disk: %s", status, data1)
	}
	if !s.disk.StatsSnapshot().Disabled {
		t.Fatal("store still enabled after persistent ENOSPC")
	}
	g := getStoreGauges(t, ts.URL)
	if !g.StoreDisabled {
		t.Fatal("/stats does not report store_disabled after ENOSPC")
	}
	// Memory tier unaffected: the repeat is a cache hit, byte-identical.
	status, data2 := postCurve(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d after degrade: %s", status, data2)
	}
	env1, env2 := decodeEnvelope(t, data1), decodeEnvelope(t, data2)
	if !env2.Cached || string(env2.Curve) != string(env1.Curve) {
		t.Fatal("memory tier damaged by the disk-tier degrade")
	}
}

// TestCorruptStoreEntryRederived: an entry corrupted on disk between
// server lives is quarantined and transparently re-derived — the client
// sees the correct curve, never the damage.
func TestCorruptStoreEntryRederived(t *testing.T) {
	dir := t.TempDir()
	body := `{"gemm":{"m":32,"k":24,"n":16}}`

	sA := New(Config{Workers: 2, StoreDir: dir})
	tsA := httptest.NewServer(sA.Handler())
	status, data1 := postCurve(t, tsA.URL, body)
	if status != http.StatusOK {
		t.Fatalf("first life status %d", status)
	}
	env1 := decodeEnvelope(t, data1)
	tsA.Close()
	sA.Close()

	entries, err := filepath.Glob(filepath.Join(dir, "*.curve"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("store entries %v (err %v), want exactly one", entries, err)
	}
	raw, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(entries[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	var derives atomic.Int64
	_, tsB := newTestServer(t, Config{StoreDir: dir, deriveWrap: countDerives(&derives)})
	status, data2 := postCurve(t, tsB.URL, body)
	if status != http.StatusOK {
		t.Fatalf("second life status %d: %s", status, data2)
	}
	env2 := decodeEnvelope(t, data2)
	if env2.Cached {
		t.Fatal("corrupt disk entry served as a cache hit")
	}
	if string(env2.Curve) != string(env1.Curve) {
		t.Fatal("re-derived curve differs from the original")
	}
	if derives.Load() != 1 {
		t.Fatalf("%d derivations, want 1 (corrupt entry is a miss)", derives.Load())
	}
	quarantined, err := filepath.Glob(filepath.Join(dir, "*.corrupt*"))
	if err != nil || len(quarantined) != 1 {
		t.Fatalf("quarantine files %v (err %v), want exactly one", quarantined, err)
	}
}

// TestWrappedCountsNeverPersisted: the two requests whose byte counts
// wrap int64 (an extent near 2^61 or 2^62) derive curves the curve
// decoder rejects. The store must refuse them at Put rather than
// persist them for every later Get to quarantine, so two server lives
// over one store directory leave neither an entry nor a .corrupt file.
func TestWrappedCountsNeverPersisted(t *testing.T) {
	dir := t.TempDir()
	bodies := []string{
		`{"gemm":{"m":2305843009213693951,"k":2,"n":2}}`,
		`{"gemm":{"m":4611686018427387847,"k":1,"n":1}}`,
	}
	for life := 0; life < 2; life++ {
		_, ts := newTestServer(t, Config{StoreDir: dir})
		for _, body := range bodies {
			postCurve(t, ts.URL, body)
		}
		ts.Close()
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.c*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("store directory holds %v (err %v), want no entries and no quarantines", left, err)
	}
}

// TestWrappedCurveNeverServed: a workload whose byte counts could wrap
// int64 is refused at admission with 400 invalid_workload, on the first
// request and the retry, before any derivation runs.
func TestWrappedCurveNeverServed(t *testing.T) {
	var derives atomic.Int64
	_, ts := newTestServer(t, Config{StoreDir: t.TempDir(), deriveWrap: countDerives(&derives)})
	for _, body := range []string{
		`{"gemm":{"m":2305843009213693951,"k":2,"n":2}}`,
		`{"gemm":{"m":4611686018427387847,"k":1,"n":1}}`,
	} {
		for try := 0; try < 2; try++ {
			status, data := postCurve(t, ts.URL, body)
			var er ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatalf("%s: status %d, undecodable body %s", body, status, data)
			}
			if status != http.StatusBadRequest || er.Error.Code != "invalid_workload" {
				t.Fatalf("%s: status %d code %q, want 400 invalid_workload: %s", body, status, er.Error.Code, data)
			}
		}
	}
	if n := derives.Load(); n != 0 {
		t.Fatalf("%d derivations ran, want none", n)
	}
}

// TestInvalidCurveNeverPublished pins the publish guard behind admission:
// a derived curve the decoder would reject (here a wrapped, negative
// count injected through the derive seam) is answered with a named 500,
// on the miss and again on the retry, and leaves no memory entry and no
// store file.
func TestInvalidCurveNeverPublished(t *testing.T) {
	dir := t.TempDir()
	wrapped := pareto.NewBuilder()
	wrapped.Add(-4611686018427387906, -8)
	s, ts := newTestServer(t, Config{StoreDir: dir, deriveWrap: func(*derivation, deriveFn) deriveFn {
		return func(context.Context) (deriveOut, error) {
			return deriveOut{curve: wrapped.Curve(), evaluated: 1}, nil
		}
	}})
	for try := 0; try < 2; try++ {
		status, data := postCurve(t, ts.URL, `{"gemm":{"m":8,"k":4,"n":2}}`)
		var er ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil {
			t.Fatalf("status %d, undecodable body %s", status, data)
		}
		if status != http.StatusInternalServerError || er.Error.Code != "invalid_curve" {
			t.Fatalf("status %d code %q, want 500 invalid_curve: %s", status, er.Error.Code, data)
		}
	}
	if n := s.mem.len(); n != 0 {
		t.Fatalf("memory cache holds %d results, want none", n)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.c*"))
	if err != nil || len(left) != 0 {
		t.Fatalf("store directory holds %v (err %v), want no entries and no quarantines", left, err)
	}
	if g := getStoreGauges(t, ts.URL); g.StoreWrites != 0 {
		t.Fatalf("store_writes = %d, want 0", g.StoreWrites)
	}
}

// TestDegraded206NeverPersisted: a partial (206) segmentation result
// must not enter the durable tier — a later identical request with a
// healthy fleet deserves the full derivation, and a restart must not
// resurrect degraded coverage as truth.
func TestDegraded206NeverPersisted(t *testing.T) {
	exprs := []string{
		`B[m,n] = A[m,k] * W[k,n] {M=16,K=4,N=8}`,
		`C[m,n] = B[m,k] * V[k,n] {M=16,K=8,N=8}`,
		`D[m,n] = C[m,k] * U[k,n] {M=16,K=8,N=4}`,
		`E[m,n] = D[m,k] * T[k,n] {M=16,K=4,N=4}`,
	}
	errDisk := errors.New("injected: no space left on device")
	ffs := &shard.FaultFS{Fail: func(op shard.Op, path string) error {
		if op == shard.OpRename && strings.Contains(path, "shard-2-of-3.json") {
			return errDisk
		}
		return nil
	}}
	storeDir := t.TempDir()
	_, ts := newTestServer(t, Config{
		Workers:         2,
		SpoolDir:        t.TempDir(),
		CheckpointEvery: 2,
		ShardRetries:    -1,
		fs:              ffs,
		StoreDir:        storeDir,
	})
	body := fmt.Sprintf(
		`{"segmentation":{"einsums":[%q,%q,%q,%q]},"shards":3,"allow_partial":true}`,
		exprs[0], exprs[1], exprs[2], exprs[3])
	status, data := postCurve(t, ts.URL, body)
	if status != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", status, data)
	}
	persisted, err := filepath.Glob(filepath.Join(storeDir, "*.curve"))
	if err != nil {
		t.Fatal(err)
	}
	if len(persisted) != 0 {
		t.Fatalf("degraded derivation persisted to the durable tier: %v", persisted)
	}
	if g := getStoreGauges(t, ts.URL); g.StoreWrites != 0 {
		t.Fatalf("store_writes = %d after a 206, want 0", g.StoreWrites)
	}
}
