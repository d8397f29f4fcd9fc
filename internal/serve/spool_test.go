package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/shard"
)

// TestResumeOrphansCompletesSpooledDerivation: a server killed mid-way
// through a sharded derivation leaves a spool subdirectory whose
// spec.json fully describes the work; a fresh server — which never sees
// the original request — resumes and completes it from that file alone
// via ResumeOrphans, caches the result, and cleans the spool. The first
// client request after recovery is a cache hit with the byte-identical
// curve.
func TestResumeOrphansCompletesSpooledDerivation(t *testing.T) {
	spool := t.TempDir()
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	full := bound.Derive(e, bound.Options{Workers: 2})
	want, err := json.Marshal(full.Curve)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"timeout_ms":60000}`

	// Server 1: kill after two checkpoint flushes, leaving an orphaned
	// spool with committed partial progress.
	var flushes atomic.Int64
	var killOnce sync.Once
	var s1 *Server
	cfg1 := Config{
		Workers:         2,
		SpoolDir:        spool,
		CheckpointEvery: 3,
		OnCheckpoint: func(m shard.Manifest) {
			if flushes.Add(1) >= 2 {
				killOnce.Do(func() { s1.Close() })
			}
		},
	}
	srv1, ts1 := newTestServer(t, cfg1)
	s1 = srv1
	if status, data := postCurve(t, ts1.URL, body); status != http.StatusServiceUnavailable {
		t.Fatalf("killed derivation: status %d, want 503: %s", status, data)
	}

	// The orphan is self-describing: spec.json sits beside the partials.
	specs, err := filepath.Glob(filepath.Join(spool, "*", spoolSpecFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("%d spool spec.json files after kill, want 1", len(specs))
	}
	orphanDir := filepath.Dir(specs[0])
	env, err := readSpoolSpec(shard.OS(), orphanDir)
	if err != nil {
		t.Fatal(err)
	}
	if env.Kind != string(shard.KindBound) || env.Shards != 2 {
		t.Fatalf("spec.json records kind=%q shards=%d, want bound/2", env.Kind, env.Shards)
	}

	// Distractors ResumeOrphans must skip and keep: a legacy spool with
	// no spec.json, and one whose spec.json is corrupt.
	legacy := filepath.Join(spool, "00legacy00000000")
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(spool, "00corrupt0000000")
	if err := os.MkdirAll(corrupt, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(corrupt, spoolSpecFile), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Server 2 never receives the request; ResumeOrphans alone completes
	// the derivation. Count resumed shard work through the derive seam.
	var resumedEvaluated atomic.Int64
	cfg2 := Config{
		Workers:         2,
		SpoolDir:        spool,
		CheckpointEvery: 3,
		deriveWrap: func(d *derivation, fn deriveFn) deriveFn {
			return func(ctx context.Context) (deriveOut, error) {
				out, err := fn(ctx)
				resumedEvaluated.Add(out.evaluated)
				return out, err
			}
		},
	}
	srv2, ts2 := newTestServer(t, cfg2)
	n, err := srv2.ResumeOrphans(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("resumed %d orphans, want 1", n)
	}
	// Resumed, not restarted: strictly fewer mappings than from scratch.
	if got := resumedEvaluated.Load(); got <= 0 || got >= full.Stats.MappingsEvaluated {
		t.Fatalf("resume evaluated %d mappings, full derivation evaluates %d; want 0 < evaluated < full",
			got, full.Stats.MappingsEvaluated)
	}
	// The completed spool is cleaned; the distractors survive untouched.
	if _, err := os.Stat(orphanDir); !os.IsNotExist(err) {
		t.Fatalf("completed orphan spool %s not cleaned (err=%v)", orphanDir, err)
	}
	for _, dir := range []string{legacy, corrupt} {
		if _, err := os.Stat(dir); err != nil {
			t.Fatalf("ResumeOrphans touched unresumable spool %s: %v", dir, err)
		}
	}
	// A second scan finds nothing resumable.
	if n, err := srv2.ResumeOrphans(context.Background()); err != nil || n != 0 {
		t.Fatalf("second scan resumed %d (err=%v), want 0", n, err)
	}

	// The recovered result is served from cache, byte-identical.
	status, data := postCurve(t, ts2.URL, body)
	if status != http.StatusOK {
		t.Fatalf("post-recovery request: status %d: %s", status, data)
	}
	got := decodeEnvelope(t, data)
	if !got.Cached {
		t.Fatal("post-recovery request missed the cache; ResumeOrphans did not publish its result")
	}
	if string(got.Curve) != string(want) {
		t.Fatalf("recovered curve differs from bound.Derive\n got %s\nwant %s", got.Curve, want)
	}
}

// TestResumeOrphansSegmentation: the materialized segmentation Spec —
// per-op curves included — round-trips through the spool's spec.json, so
// even the kind whose shard jobs need derived inputs is resumable by a
// process that never derived them.
func TestResumeOrphansSegmentation(t *testing.T) {
	spool := t.TempDir()
	c := segTestChain(t, segEinsums)
	a, err := fusion.Analyze(c, bound.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(a.Best)
	if err != nil {
		t.Fatal(err)
	}

	// Kill server 1 after the first checkpoint flush of the sharded
	// segmentation study.
	var killOnce sync.Once
	var s1 *Server
	cfg1 := Config{
		Workers:         2,
		SpoolDir:        spool,
		CheckpointEvery: 1,
		OnCheckpoint: func(m shard.Manifest) {
			killOnce.Do(func() { s1.Close() })
		},
	}
	srv1, ts1 := newTestServer(t, cfg1)
	s1 = srv1
	body := `{"segmentation":{"einsums":["` + segEinsums[0] + `","` + segEinsums[1] + `","` + segEinsums[2] + `"]},"shards":2,"timeout_ms":60000}`
	if status, data := postCurve(t, ts1.URL, body); status != http.StatusServiceUnavailable {
		t.Fatalf("killed segmentation: status %d, want 503: %s", status, data)
	}

	// The spooled spec.json carries the materialized per-op curves.
	specs, err := filepath.Glob(filepath.Join(spool, "*", spoolSpecFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("%d spool spec.json files after kill, want 1", len(specs))
	}
	env, err := readSpoolSpec(shard.OS(), filepath.Dir(specs[0]))
	if err != nil {
		t.Fatal(err)
	}
	var embedded struct {
		PerOp []json.RawMessage `json:"per_op"`
	}
	if err := json.Unmarshal(env.Spec, &embedded); err != nil {
		t.Fatal(err)
	}
	if len(embedded.PerOp) != len(a.PerOp) {
		t.Fatalf("spec.json embeds %d per-op curves, want %d", len(embedded.PerOp), len(a.PerOp))
	}

	srv2, ts2 := newTestServer(t, Config{Workers: 2, SpoolDir: spool, CheckpointEvery: 1})
	if n, err := srv2.ResumeOrphans(context.Background()); err != nil || n != 1 {
		t.Fatalf("resumed %d orphans (err=%v), want 1", n, err)
	}
	status, data := postCurve(t, ts2.URL, body)
	if status != http.StatusOK {
		t.Fatalf("post-recovery request: status %d: %s", status, data)
	}
	got := decodeEnvelope(t, data)
	if !got.Cached {
		t.Fatal("post-recovery segmentation request missed the cache")
	}
	if string(got.Curve) != string(want) {
		t.Fatalf("recovered segmentation curve differs\n got %s\nwant %s", got.Curve, want)
	}
}

// TestSpoolSpecWrittenDurably pins the crash-safety ordering of spec.json
// through the FaultFS operation log: the spool's self-description is
// written to a temp file that is synced and closed before the rename
// commits it, and the directory is synced after — so a host crash can
// never leave a torn spec.json that ResumeOrphans would skip forever.
func TestSpoolSpecWrittenDurably(t *testing.T) {
	spool := t.TempDir()
	ffs := &shard.FaultFS{}
	_, ts := newTestServer(t, Config{SpoolDir: spool, fs: ffs})
	if status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":2}`); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	// spec.json is written right after the spool directory is created
	// and before any shard runs, so its flush leads the log.
	log := ffs.Log()
	if len(log) < 7 || !strings.HasPrefix(log[0], string(shard.OpMkdirAll)+" ") {
		t.Fatalf("spool directory creation does not lead the log:\n%s", strings.Join(log, "\n"))
	}
	log = log[1:]
	if len(log) < 6 {
		t.Fatalf("operation log too short:\n%s", strings.Join(log, "\n"))
	}
	dir := strings.TrimPrefix(log[0], string(shard.OpCreateTemp)+" ")
	tmp := strings.SplitN(log[1], " ", 2)[1]
	want := []string{
		string(shard.OpCreateTemp) + " " + dir,
		string(shard.OpWrite) + " " + tmp,
		string(shard.OpSync) + " " + tmp,
		string(shard.OpClose) + " " + tmp,
		string(shard.OpRename) + " " + filepath.Join(dir, spoolSpecFile),
		string(shard.OpSyncDir) + " " + dir,
	}
	for i, w := range want {
		if log[i] != w {
			t.Fatalf("spec.json flush step %d is %q, want %q; log:\n%s", i, log[i], w, strings.Join(log, "\n"))
		}
	}
	if !strings.HasPrefix(filepath.Base(tmp), spoolSpecFile+".tmp") {
		t.Fatalf("spec.json temp file %q is not named beside its target", tmp)
	}
}
