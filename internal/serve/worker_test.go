package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/shard"
	"repro/internal/workload"
)

// testChain builds the small two-op chain the worker tests use.
func testChain(t *testing.T) *fusion.Chain {
	t.Helper()
	c, err := fusion.NewChain("ffn", 64,
		fusion.GEMMOp("mm_0", 64, 32, 48),
		fusion.GEMMOp("mm_1", 64, 48, 16))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// postShard sends a raw body to /v1/shard and returns status + response.
func postShard(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/shard", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// shardBody builds a ShardRequest body for a spec.
func shardBody(t *testing.T, spec *workload.Spec, k, n int) []byte {
	t.Helper()
	raw, err := spec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(ShardRequest{Spec: raw, ShardIndex: k, ShardCount: n})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestWorkerShardRoundTrip drives the worker endpoint directly: both
// shards of a 2-way bound plan come back as valid, complete partials
// whose merge is byte-identical to the single-process curve.
func TestWorkerShardRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	spec := workload.NewBound(e, bound.Options{})

	var partials []*shard.Partial
	for k := 0; k < 2; k++ {
		status, data := postShard(t, ts.URL, shardBody(t, spec, k, 2))
		if status != http.StatusOK {
			t.Fatalf("shard %d: status %d: %s", k, status, data)
		}
		var p shard.Partial
		if err := json.Unmarshal(data, &p); err != nil {
			t.Fatalf("shard %d: parsing partial: %v", k, err)
		}
		if err := p.Manifest.Validate(); err != nil {
			t.Fatalf("shard %d: invalid manifest: %v", k, err)
		}
		if !p.Manifest.Complete() {
			t.Fatalf("shard %d: incomplete partial (through %d of [%d, %d))",
				k, p.Manifest.CompletedThrough, p.Manifest.RangeLo, p.Manifest.RangeHi)
		}
		partials = append(partials, &p)
	}

	merged, err := shard.Merge(partials...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(bound.Derive(e, bound.Options{Workers: 2}).Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("merged worker shards differ from bound.Derive\n got %s\nwant %s", got, want)
	}
}

// TestWorkerUnknownKindIs400 is the regression test for the structured
// rejection of unregistered spec kinds: a 400 invalid_workload naming
// the registered alternatives, never a 500 out of panic containment.
func TestWorkerUnknownKindIs400(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	body := []byte(`{"spec":{"kind":"nonsense"},"shard_index":0,"shard_count":2}`)
	status, data := postShard(t, ts.URL, body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, data)
	}
	ei := decodeError(t, data)
	if ei.Code != "invalid_workload" {
		t.Fatalf("code %q, want invalid_workload: %s", ei.Code, data)
	}
	if !strings.Contains(ei.Message, "nonsense") {
		t.Fatalf("message does not name the unknown kind: %s", ei.Message)
	}
	if !strings.Contains(ei.Message, string(shard.KindBound)) {
		t.Fatalf("message does not name registered kinds: %s", ei.Message)
	}
	if got := s.Snapshot().PanicsRecovered; got != 0 {
		t.Fatalf("unknown kind tripped panic containment (%d panics recovered)", got)
	}
}

// TestWorkerEndpointValidation covers the remaining request rejections:
// endpoint disabled, bad plan, missing spec, unknown request field,
// unmaterialized spec, and format-version negotiation.
func TestWorkerEndpointValidation(t *testing.T) {
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	spec := workload.NewBound(e, bound.Options{})

	t.Run("disabled", func(t *testing.T) {
		_, ts := newTestServer(t, Config{})
		status, data := postShard(t, ts.URL, shardBody(t, spec, 0, 2))
		if status != http.StatusNotFound {
			t.Fatalf("status %d, want 404: %s", status, data)
		}
		if ei := decodeError(t, data); ei.Code != "worker_disabled" {
			t.Fatalf("code %q, want worker_disabled", ei.Code)
		}
	})

	_, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})

	t.Run("bad plan", func(t *testing.T) {
		status, data := postShard(t, ts.URL, shardBody(t, spec, 7, 2))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
	})
	t.Run("missing spec", func(t *testing.T) {
		status, data := postShard(t, ts.URL, []byte(`{"shard_index":0,"shard_count":2}`))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		status, data := postShard(t, ts.URL, []byte(`{"shard_index":0,"shard_count":2,"bogus":1}`))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
		if ei := decodeError(t, data); ei.Code != "invalid_request" {
			t.Fatalf("code %q, want invalid_request", ei.Code)
		}
	})
	t.Run("unmaterialized segmentation", func(t *testing.T) {
		c := testChain(t)
		raw, err := workload.NewSegmentation(c, nil).Encode()
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(ShardRequest{Spec: raw, ShardIndex: 0, ShardCount: 2})
		if err != nil {
			t.Fatal(err)
		}
		status, data := postShard(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
		if ei := decodeError(t, data); ei.Code != "invalid_workload" {
			t.Fatalf("code %q, want invalid_workload: %s", ei.Code, data)
		}
	})
	t.Run("version negotiation", func(t *testing.T) {
		raw, err := spec.Encode()
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(ShardRequest{Spec: raw, ShardIndex: 0, ShardCount: 2, MaxFormatVersion: shard.FormatVersion - 1})
		if err != nil {
			t.Fatal(err)
		}
		status, data := postShard(t, ts.URL, body)
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", status, data)
		}
		if ei := decodeError(t, data); ei.Code != "unsupported_version" {
			t.Fatalf("code %q, want unsupported_version: %s", ei.Code, data)
		}
		body, err = json.Marshal(ShardRequest{Spec: raw, ShardIndex: 0, ShardCount: 2, MaxFormatVersion: shard.FormatVersion})
		if err != nil {
			t.Fatal(err)
		}
		if status, data := postShard(t, ts.URL, body); status != http.StatusOK {
			t.Fatalf("current version rejected: %d: %s", status, data)
		}
	})
}

// TestWorkerDrainingRejectsShards pins the drain contract on the worker
// endpoint: once draining, dispatches get 503 so coordinators retry
// elsewhere.
func TestWorkerDrainingRejectsShards(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	s.draining.Store(true)
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	status, data := postShard(t, ts.URL, shardBody(t, workload.NewBound(e, bound.Options{}), 0, 2))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", status, data)
	}
	if ei := decodeError(t, data); ei.Code != "draining" {
		t.Fatalf("code %q, want draining", ei.Code)
	}
}

// TestWorkerStatsCount pins the worker counters: every /v1/shard request
// counts, and completed slices count separately.
func TestWorkerStatsCount(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	spec := workload.NewBound(e, bound.Options{})
	if status, data := postShard(t, ts.URL, shardBody(t, spec, 0, 2)); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	postShard(t, ts.URL, []byte(`not json`))
	st := s.Snapshot()
	if st.WorkerRequests != 2 {
		t.Fatalf("worker_requests %d, want 2", st.WorkerRequests)
	}
	if st.WorkerShards != 1 {
		t.Fatalf("worker_shards %d, want 1", st.WorkerShards)
	}
}

// gateFS holds the first checkpoint temp file of the shard whose path
// contains hold until release returns, then proceeds on the real
// filesystem.
type gateFS struct {
	shard.FS
	hold    string
	release func()
	once    sync.Once
}

func (g *gateFS) CreateTemp(dir, pattern string) (shard.File, error) {
	if strings.Contains(pattern, g.hold) {
		g.once.Do(g.release)
	}
	return g.FS.CreateTemp(dir, pattern)
}

// TestWorkerSiblingShardKeepsDigestDir is the regression test for the
// worker checkpoint-directory race: two shards of one spec run
// concurrently on one worker, and shard 1 finishes before shard 2 writes
// its first checkpoint. The finishing shard must not remove the shared
// digest directory under its sibling, so the fleet run needs no retry
// and the worker answers no 500.
func TestWorkerSiblingShardKeepsDigestDir(t *testing.T) {
	var ws *Server
	gate := &gateFS{FS: shard.OS(), hold: "shard-2-of-2"}
	gate.release = func() {
		// Wait (bounded) until the sibling has finished and answered.
		deadline := time.Now().Add(30 * time.Second)
		for ws.Snapshot().WorkerShards < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	workerDir := t.TempDir()
	ws, wts := newTestServer(t, Config{WorkerDir: workerDir, MaxConcurrent: 2, fs: gate})
	cs, ts := newTestServer(t, Config{
		SpoolDir:       t.TempDir(),
		FleetWorkers:   []string{wts.URL},
		FleetPerWorker: 2,
	})
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"timeout_ms":60000}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if want := gemmWant(t, 32, 24, 16); string(decodeEnvelope(t, data).Curve) != want {
		t.Fatalf("fleet curve differs from bound.Derive\n got %s\nwant %s", decodeEnvelope(t, data).Curve, want)
	}
	if st := cs.Snapshot(); st.FleetRetries != 0 || st.FleetDispatches != 2 {
		t.Fatalf("fleet_retries %d, fleet_dispatches %d; want 0 and 2", st.FleetRetries, st.FleetDispatches)
	}
	if st := ws.Snapshot(); st.WorkerRequests != 2 || st.WorkerShards != 2 {
		t.Fatalf("worker_requests %d, worker_shards %d; want 2 and 2", st.WorkerRequests, st.WorkerShards)
	}
	if left, err := filepath.Glob(filepath.Join(workerDir, "*")); err != nil || len(left) != 0 {
		t.Fatalf("worker directory not cleaned after both shards: %v (err=%v)", left, err)
	}
}

// TestWorkerQuarantinesEachCorruptCheckpoint: every corrupt checkpoint a
// worker finds in a shard's slot is renamed to its own first free
// "<path>.corrupt[.N]" name, so a second one on the same slot never
// overwrites the evidence of the first.
func TestWorkerQuarantinesEachCorruptCheckpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{WorkerDir: t.TempDir()})
	spec := workload.NewBound(einsum.GEMM("gemm_32x24x16", 32, 24, 16), bound.Options{})
	plan := shard.Plan{Index: 0, Count: 2}
	job, err := spec.Compile(plan, workload.Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	path := s.workerShardPath(&job, plan)
	garbage := []string{`{"manifest": tor`, `{"manifest": null, "curve": 7`}
	for _, g := range garbage {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(g), 0o644); err != nil {
			t.Fatal(err)
		}
		if status, data := postShard(t, ts.URL, shardBody(t, spec, 0, 2)); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, data)
		}
	}
	for i, q := range []string{path + ".corrupt", path + ".corrupt.1"} {
		data, err := os.ReadFile(q)
		if err != nil {
			t.Fatalf("quarantined checkpoint %d missing: %v", i+1, err)
		}
		if string(data) != garbage[i] {
			t.Fatalf("%s holds %q, want the evidence %q", q, data, garbage[i])
		}
	}
}
