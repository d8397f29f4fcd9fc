package serve

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestEveryDurableFileGoesThroughFS is the seam-completeness check: one
// recording FaultFS handed to a coordinator and its loopback worker must
// see every file and directory a full round trip leaves behind. The
// round trip covers a store miss and Put, a GC sweep, a corrupt entry's
// quarantine, a spooled 2-shard derive whose first worker response is
// invalid and quarantined, and ResumeOrphans finishing an orphaned spool.
func TestEveryDurableFileGoesThroughFS(t *testing.T) {
	ffs := &shard.FaultFS{}
	storeDir, spool, workerDir := t.TempDir(), t.TempDir(), t.TempDir()
	_, wts := newTestServer(t, Config{WorkerDir: workerDir, fs: ffs})
	var garbled atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/shard" {
			wts.Config.Handler.ServeHTTP(w, r) // health probes
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, "torn dispatch", http.StatusBadRequest)
			return
		}
		if garbled.CompareAndSwap(false, true) {
			w.Write([]byte(`{"manifest":{},"curve":null}`))
			return
		}
		forwardShard(t, w, wts.URL, body)
	}))
	defer proxy.Close()
	s, ts := newTestServer(t, Config{
		StoreDir:     storeDir,
		SpoolDir:     spool,
		FleetWorkers: []string{proxy.URL},
		fs:           ffs,
	})

	// Store miss → derive → Put; then a GC sweep takes the lock.
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":16,"k":8,"n":8}}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	digest := decodeEnvelope(t, data).Digest
	s.disk.GC()

	// A flipped byte makes the next Get quarantine the entry.
	entry := filepath.Join(storeDir, digest+".curve")
	raw, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(entry, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.disk.Get(digest); ok {
		t.Fatal("corrupt entry served")
	}

	// Spooled 2-shard derive over the fleet; the garbled first response
	// is quarantined and the shard retried.
	status, data = postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"timeout_ms":60000}`)
	if status != http.StatusOK {
		t.Fatalf("spooled status %d: %s", status, data)
	}
	if q := s.Snapshot().FleetQuarantines; q != 1 {
		t.Fatalf("fleet_quarantines %d, want 1", q)
	}

	// An orphaned spool (its spec.json and no partials yet) for
	// ResumeOrphans to finish.
	d, err := derivationFromSpec(workload.NewBound(einsum.GEMM("orphan", 24, 16, 8), bound.Options{}), 2)
	if err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(spool, fmt.Sprintf("%.16s", d.digest))
	if err := ffs.MkdirAll(orphan); err != nil {
		t.Fatal(err)
	}
	if err := writeSpoolSpec(ffs, orphan, d, 2); err != nil {
		t.Fatal(err)
	}
	if n, err := s.ResumeOrphans(context.Background()); err != nil || n != 1 {
		t.Fatalf("ResumeOrphans = %d, %v; want 1 resumed", n, err)
	}

	logged := map[string]bool{}
	var quarantined []string
	for _, e := range ffs.Log() {
		op, path, _ := strings.Cut(e, " ")
		logged[path] = true
		if op == string(shard.OpRename) && (strings.Contains(path, ".quarantine") || strings.Contains(path, ".corrupt")) {
			quarantined = append(quarantined, path)
		}
	}
	if len(quarantined) != 2 {
		t.Fatalf("quarantine renames %v, want the corrupt entry and the invalid response", quarantined)
	}
	left := 0
	for _, root := range []string{storeDir, spool, workerDir} {
		err := filepath.WalkDir(root, func(p string, _ fs.DirEntry, err error) error {
			if err != nil || p == root {
				return err
			}
			left++
			if !logged[p] {
				t.Errorf("%s was left on disk without passing through the FS seam", p)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// store.lock, the quarantined entry, and the two fleet curves.
	if left != 4 {
		t.Errorf("%d paths left under the test directories, want 4", left)
	}
}

// TestSpoolMkdirFailureNamed: a spool directory that cannot be created
// fails the sharded request with an error naming the spool, not a bare
// errno.
func TestSpoolMkdirFailureNamed(t *testing.T) {
	spool := t.TempDir()
	ffs := &shard.FaultFS{Fail: func(op shard.Op, path string) error {
		if op == shard.OpMkdirAll && strings.HasPrefix(path, spool) {
			return fs.ErrPermission
		}
		return nil
	}}
	_, ts := newTestServer(t, Config{SpoolDir: spool, fs: ffs})
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":2}`)
	if status != http.StatusInternalServerError || !strings.Contains(string(data), "creating spool") {
		t.Fatalf("status %d: %s; want a 500 naming the spool", status, data)
	}
}

// TestWorkerCheckpointReadFailureRetried: a worker whose finished
// checkpoint cannot be read back fails that dispatch; the coordinator
// retries it, the worker resumes the complete checkpoint, and the curve
// is exact.
func TestWorkerCheckpointReadFailureRetried(t *testing.T) {
	var mu sync.Mutex
	reads := 0
	ffs := &shard.FaultFS{Fail: func(op shard.Op, path string) error {
		if op != shard.OpReadFile || !strings.HasSuffix(path, "shard-2-of-2.json") {
			return nil
		}
		mu.Lock()
		defer mu.Unlock()
		// Read 1 is shard.Run's resume probe; read 2 is the response.
		if reads++; reads == 2 {
			return fs.ErrPermission
		}
		return nil
	}}
	_, wts := newTestServer(t, Config{WorkerDir: t.TempDir(), fs: ffs})
	s, ts := newTestServer(t, Config{SpoolDir: t.TempDir(), FleetWorkers: []string{wts.URL}})
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"timeout_ms":60000}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	if want := gemmWant(t, 32, 24, 16); string(decodeEnvelope(t, data).Curve) != want {
		t.Fatal("curve after a retried dispatch differs from bound.Derive")
	}
	if st := s.Snapshot(); st.FleetRetries != 1 {
		t.Fatalf("fleet_retries %d, want 1", st.FleetRetries)
	}
}
