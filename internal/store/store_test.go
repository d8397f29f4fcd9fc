package store_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	orojenesis "repro"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// testCurve builds a small valid frontier.
func testCurve() *pareto.Curve {
	c := pareto.FromPoints([]pareto.Point{
		{BufferBytes: 64, AccessBytes: 1000},
		{BufferBytes: 128, AccessBytes: 500},
		{BufferBytes: 256, AccessBytes: 250},
	})
	c.AlgoMinBytes = 200
	c.TotalOperandBytes = 4096
	return c
}

// bigCurve builds a frontier of n points, for GC byte-pressure tests.
func bigCurve(n int) *pareto.Curve {
	pts := make([]pareto.Point, n)
	for i := range pts {
		pts[i] = pareto.Point{BufferBytes: int64(i + 1), AccessBytes: int64(2*n - i)}
	}
	return pareto.FromPoints(pts)
}

func testEntry(c *pareto.Curve) *store.Entry {
	return &store.Entry{Kind: shard.KindBound, Workload: "gemm_test", Evaluated: 123, ElapsedMS: 45, Curve: c}
}

func open(t *testing.T, opts store.Options) *store.Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := store.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// mustJSON is the byte-identity yardstick: two curves are the same
// result iff they marshal to the same bytes.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, store.Options{Logf: t.Logf})
	digest := shard.Digest("workload-a")
	ent := testEntry(testCurve())
	ent.Segments = []workload.Segment{{Label: "[0:2)", Points: 3, Curve: testCurve()}}
	if err := s.Put(digest, ent); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), digest+".curve")); err != nil {
		t.Fatalf("committed entry not at its content address: %v", err)
	}
	got, ok := s.Get(digest)
	if !ok {
		t.Fatal("Get missed a just-written entry")
	}
	if !reflect.DeepEqual(mustJSON(t, got), mustJSON(t, ent)) {
		t.Fatalf("round trip not byte-identical:\n got %s\nwant %s", mustJSON(t, got), mustJSON(t, ent))
	}
	if _, ok := s.Get(shard.Digest("workload-b")); ok {
		t.Fatal("Get hit an absent digest")
	}
	st := s.StatsSnapshot()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 write / 1 entry", st)
	}
}

func TestPutRefusesDegradedAndNilCurves(t *testing.T) {
	s := open(t, store.Options{})
	bad := testCurve()
	bad.Degraded = true
	if err := s.Put(shard.Digest("d"), testEntry(bad)); !errors.Is(err, store.ErrDegraded) {
		t.Fatalf("degraded Put error = %v, want ErrDegraded", err)
	}
	if err := s.Put(shard.Digest("d"), &store.Entry{Kind: shard.KindBound}); err == nil {
		t.Fatal("curveless Put accepted")
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("%d entries persisted from refused Puts", n)
	}
}

func TestMaxBytesClamping(t *testing.T) {
	if s := open(t, store.Options{}); s.MaxBytes() != store.DefaultMaxBytes {
		t.Fatalf("default cap %d, want %d", s.MaxBytes(), store.DefaultMaxBytes)
	}
	if s := open(t, store.Options{MaxBytes: 5}); s.MaxBytes() != store.MinMaxBytes {
		t.Fatalf("tiny cap clamped to %d, want %d", s.MaxBytes(), store.MinMaxBytes)
	}
	if s := open(t, store.Options{MaxBytes: -3}); s.MaxBytes() != store.DefaultMaxBytes {
		t.Fatalf("negative cap %d, want default %d", s.MaxBytes(), store.DefaultMaxBytes)
	}
}

// TestCorruptEntryQuarantinedAndRederived is the core promise: a flipped
// byte is a miss plus a quarantine file, never a wrong curve, and the
// slot accepts a re-derived replacement.
func TestCorruptEntryQuarantinedAndRederived(t *testing.T) {
	s := open(t, store.Options{Logf: t.Logf})
	digest := shard.Digest("workload-a")
	ent := testEntry(testCurve())
	want := mustJSON(t, ent)
	if err := s.Put(digest, ent); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(s.Dir(), digest+".curve")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(digest); ok {
		t.Fatal("Get returned a corrupt entry")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), digest+".corrupt")); err != nil {
		t.Fatalf("corrupt entry not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt entry still at its content address: %v", err)
	}

	if err := s.Put(digest, ent); err != nil {
		t.Fatalf("re-derive rewrite: %v", err)
	}
	got, ok := s.Get(digest)
	if !ok {
		t.Fatal("Get missed the re-derived entry")
	}
	if string(mustJSON(t, got)) != string(want) {
		t.Fatal("re-derived entry not byte-identical to the original")
	}
	if q := s.StatsSnapshot().Quarantines; q != 1 {
		t.Fatalf("quarantines = %d, want 1", q)
	}
}

// TestMisplacedEntryNeverAnswers: a valid entry renamed to another
// digest's slot fails the content-address check — a disk-level mixup can
// cost a derivation, never serve the wrong workload's curve.
func TestMisplacedEntryNeverAnswers(t *testing.T) {
	s := open(t, store.Options{Logf: t.Logf})
	a, b := shard.Digest("workload-a"), shard.Digest("workload-b")
	if err := s.Put(a, testEntry(testCurve())); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(s.Dir(), a+".curve"), filepath.Join(s.Dir(), b+".curve")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(b); ok {
		t.Fatal("misplaced entry answered for the wrong digest")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), b+".corrupt")); err != nil {
		t.Fatalf("misplaced entry not quarantined: %v", err)
	}
}

// TestQuarantineNamesAccumulate: repeated corruption of one slot fills
// .corrupt, .corrupt.1, ... instead of overwriting the evidence.
func TestQuarantineNamesAccumulate(t *testing.T) {
	s := open(t, store.Options{Logf: t.Logf})
	digest := shard.Digest("workload-a")
	path := filepath.Join(s.Dir(), digest+".curve")
	for i := 0; i < 3; i++ {
		if err := os.WriteFile(path, []byte(fmt.Sprintf("garbage %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(digest); ok {
			t.Fatal("garbage served")
		}
	}
	for _, name := range []string{".corrupt", ".corrupt.1", ".corrupt.2"} {
		if _, err := os.Stat(filepath.Join(s.Dir(), digest+name)); err != nil {
			t.Fatalf("quarantine generation %s missing: %v", name, err)
		}
	}
}

func TestStaleTempSweep(t *testing.T) {
	dir := t.TempDir()
	stale := filepath.Join(dir, shard.Digest("x")+".curve.tmp123")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A fresh temp may belong to a live writer in another process: the
	// default sweep must spare it.
	open(t, store.Options{Dir: dir})
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("fresh temp swept by age-gated Open: %v", err)
	}

	// A negative age sweeps unconditionally (and any real reopen after
	// StaleTempAge would do the same for an old temp).
	open(t, store.Options{Dir: dir, StaleTempAge: -1})
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp survived the sweep: %v", err)
	}
}

// TestGCEvictsLeastRecentlyUsed fills the store past its (clamped
// minimum) cap and checks the sweep removes the coldest entries first —
// a Get refreshes recency, so the read entry must survive.
func TestGCEvictsLeastRecentlyUsed(t *testing.T) {
	s := open(t, store.Options{MaxBytes: 1, Logf: t.Logf}) // clamped to MinMaxBytes = 1 MiB
	// Each entry is ~410 KiB: three cross the 1 MiB cap, and evicting
	// exactly one lands under the low-water mark, so GC removes only the
	// coldest entry.
	big := bigCurve(10000)
	digests := []string{shard.Digest("a"), shard.Digest("b"), shard.Digest("c")}
	if err := s.Put(digests[0], testEntry(big)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Put(digests[1], testEntry(big)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	// Touch the oldest entry: recency, not write order, decides eviction.
	if _, ok := s.Get(digests[0]); !ok {
		t.Fatal("warm-up Get missed")
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Put(digests[2], testEntry(big)); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(digests[1]); ok {
		t.Fatal("coldest entry survived GC")
	}
	if _, ok := s.Get(digests[0]); !ok {
		t.Fatal("recently-read entry evicted before the coldest")
	}
	st := s.StatsSnapshot()
	if st.GCRemoved == 0 {
		t.Fatalf("gc_removed = 0 after crossing the cap: %+v", st)
	}
	if st.Bytes > s.MaxBytes() {
		t.Fatalf("directory %d bytes still above cap %d after GC", st.Bytes, s.MaxBytes())
	}
}

// TestCrossProcessSharing simulates the CLI-warmer-plus-server layout:
// two Store handles on one directory, writes from either visible to the
// other.
func TestCrossProcessSharing(t *testing.T) {
	dir := t.TempDir()
	warmer := open(t, store.Options{Dir: dir})
	server := open(t, store.Options{Dir: dir})
	digest := shard.Digest("shared")
	ent := testEntry(testCurve())
	if err := warmer.Put(digest, ent); err != nil {
		t.Fatal(err)
	}
	got, ok := server.Get(digest)
	if !ok {
		t.Fatal("second handle missed the first handle's write")
	}
	if string(mustJSON(t, got)) != string(mustJSON(t, ent)) {
		t.Fatal("cross-handle read not byte-identical")
	}
}

// TestIdentityMatchesShardDigests pins the shared cache-identity rule:
// for materialized kinds it is exactly the shard-job digests, and for
// segmentation it hashes the chain without requiring materialization.
func TestIdentityMatchesShardDigests(t *testing.T) {
	e := mustGEMMSpec(t)
	wd, od, err := e.Digests()
	if err != nil {
		t.Fatal(err)
	}
	key, digest, err := store.Identity(e)
	if err != nil {
		t.Fatal(err)
	}
	wantKey := string(e.Kind) + "|" + wd + "|" + od
	if key != wantKey {
		t.Fatalf("key %q, want %q", key, wantKey)
	}
	if digest != shard.Digest(wantKey) {
		t.Fatalf("digest %q, want shard.Digest(key)", digest)
	}
}

// TestIdentityRejectsInvalidSpec: Identity validates before it reads a
// field, so a Spec missing its workload is an error, not a nil
// dereference.
func TestIdentityRejectsInvalidSpec(t *testing.T) {
	for _, kind := range []shard.Kind{shard.KindBound, shard.KindMultiLevel, shard.KindFusionTiled, shard.KindSegmentation} {
		if _, _, err := store.Identity(&workload.Spec{Kind: kind}); err == nil {
			t.Errorf("%s spec without a workload has an identity", kind)
		}
	}
}

func mustGEMMSpec(t *testing.T) *workload.Spec {
	t.Helper()
	return workload.NewBound(orojenesis.GEMM("gemm_test", 8, 8, 8), orojenesis.Options{})
}

// TestOpenFailsOnUnusableDir: Open reports an unusable directory so the
// caller can degrade, instead of deferring the failure to mid-traffic
// Puts.
func TestOpenFailsOnUnusableDir(t *testing.T) {
	ffs := &shard.FaultFS{Fail: func(op shard.Op, _ string) error {
		if op == shard.OpCreateTemp {
			return syscall.EACCES
		}
		return nil
	}}
	_, err := store.Open(store.Options{Dir: t.TempDir(), FS: ffs})
	if err == nil || !strings.Contains(err.Error(), "not writable") {
		t.Fatalf("Open on an unwritable directory: %v", err)
	}
}
