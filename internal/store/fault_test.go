package store_test

// The fault matrix: every storage-level failure the store promises to
// survive — torn writes, interrupted renames, zeroed tails, flipped
// bytes, truncation, stale engines, misnamed files, ENOSPC, concurrent
// writers — driven through the shard.FaultFS seam or direct file
// surgery. The invariant under test is single: no fault may ever yield
// a served curve that is not byte-identical to the derived one. A fault
// may cost a re-derivation (the entry degrades to a miss and is
// quarantined); it may never corrupt an answer.

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"

	"repro/internal/shard"
	"repro/internal/store"
)

// corpse reads the committed entry file for digest out of a scratch
// store, giving fault scenarios valid bytes to mutilate.
func corpse(t *testing.T, digest string) []byte {
	t.Helper()
	s := open(t, store.Options{})
	if err := s.Put(digest, testEntry(testCurve())); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(s.Dir(), digest+".curve"))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFaultTornRename(t *testing.T) {
	injected := errors.New("injected rename fault")
	ffs := &shard.FaultFS{Fail: shard.FailN(shard.OpRename, 1, injected)}
	s := open(t, store.Options{FS: ffs, Logf: t.Logf})
	digest := shard.Digest("workload-a")
	ent := testEntry(testCurve())
	if err := s.Put(digest, ent); !errors.Is(err, injected) {
		t.Fatalf("Put error = %v, want the injected rename fault", err)
	}
	// The failed commit must leave neither an entry nor its temp behind.
	if _, ok := s.Get(digest); ok {
		t.Fatal("entry visible after failed rename")
	}
	left, err := filepath.Glob(filepath.Join(s.Dir(), "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temp files left after failed rename: %v", left)
	}
	// The fault was transient: the retry commits and round-trips.
	if err := s.Put(digest, ent); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(digest)
	if !ok {
		t.Fatal("retry entry missed")
	}
	if string(mustJSON(t, got)) != string(mustJSON(t, ent)) {
		t.Fatal("retry entry not byte-identical")
	}
	if we := s.StatsSnapshot().WriteErrors; we != 1 {
		t.Fatalf("write_errors = %d, want 1", we)
	}
}

func TestFaultSyncFailure(t *testing.T) {
	injected := errors.New("injected sync fault")
	ffs := &shard.FaultFS{Fail: shard.FailN(shard.OpSync, 1, injected)}
	s := open(t, store.Options{FS: ffs, Logf: t.Logf})
	digest := shard.Digest("workload-a")
	if err := s.Put(digest, testEntry(testCurve())); !errors.Is(err, injected) {
		t.Fatalf("Put error = %v, want the injected sync fault", err)
	}
	if _, ok := s.Get(digest); ok {
		t.Fatal("entry visible after failed sync")
	}
	if err := s.Put(digest, testEntry(testCurve())); err != nil {
		t.Fatal(err)
	}
}

// TestFaultKillMidWrite simulates a process killed between temp write
// and rename: a half-written temp file left on disk. A restart must
// sweep it and the entry must remain a plain miss.
func TestFaultKillMidWrite(t *testing.T) {
	digest := shard.Digest("workload-a")
	data := corpse(t, digest)

	dir := t.TempDir()
	torn := filepath.Join(dir, digest+".curve.tmp1234567")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	backdate(t, torn)
	s := open(t, store.Options{Dir: dir, Logf: t.Logf})
	if _, err := os.Stat(torn); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn temp survived the startup sweep: %v", err)
	}
	if _, ok := s.Get(digest); ok {
		t.Fatal("Get hit with no committed entry")
	}
	if err := s.Put(digest, testEntry(testCurve())); err != nil {
		t.Fatal(err)
	}
}

// testEnvelope mirrors the on-disk envelope with the payload kept raw,
// so a test can falsify one header field while leaving the payload
// bytes — and their checksum — intact.
type testEnvelope struct {
	FormatVersion int             `json:"format_version"`
	Engine        string          `json:"engine"`
	Digest        string          `json:"digest"`
	PayloadSHA256 string          `json:"payload_sha256"`
	Payload       json.RawMessage `json:"payload"`
}

// rewriteHeader returns a mutilation that falsifies envelope header
// fields with mutate, re-encoding the envelope around the raw payload.
func rewriteHeader(mutate func(*testEnvelope)) func(*testing.T, []byte) []byte {
	return func(t *testing.T, data []byte) []byte {
		t.Helper()
		var env testEnvelope
		if err := json.Unmarshal(data, &env); err != nil {
			t.Fatal(err)
		}
		mutate(&env)
		out, err := json.Marshal(&env)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

// TestFaultCorruptEntry plants a mutilated copy of a valid entry in its
// slot: each must read as a miss, leave a quarantine file, and the slot
// must accept a re-derived entry that reads back byte-identical.
func TestFaultCorruptEntry(t *testing.T) {
	cases := []struct {
		name     string
		mutilate func(t *testing.T, data []byte) []byte
	}{
		{"ZeroedTail", func(_ *testing.T, data []byte) []byte {
			for i := len(data) * 3 / 4; i < len(data); i++ {
				data[i] = 0
			}
			return data
		}},
		{"FlippedByte", func(_ *testing.T, data []byte) []byte {
			data[len(data)/2] ^= 0x01
			return data
		}},
		{"Truncation", func(_ *testing.T, data []byte) []byte { return data[:len(data)/2] }},
		// An entry written by a different derivation engine revision is
		// internally consistent — valid JSON, valid checksum — and must
		// still be rejected, or an engine upgrade would serve stale physics.
		{"WrongEngine", rewriteHeader(func(env *testEnvelope) { env.Engine = "orojenesis/0-ancient" })},
		{"WrongFormatVersion", rewriteHeader(func(env *testEnvelope) { env.FormatVersion = store.FormatVersion + 1 })},
		// The recorded digest disagrees with the file's content address
		// (e.g. a bit flip inside the digest field, or a file copied
		// between slots). Checksum-valid, still rejected.
		{"FlippedDigest", rewriteHeader(func(env *testEnvelope) { env.Digest = shard.Digest("some-other-workload") })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			digest := shard.Digest("workload-a")
			data := tc.mutilate(t, corpse(t, digest))
			s := open(t, store.Options{Logf: t.Logf})
			if err := os.WriteFile(filepath.Join(s.Dir(), digest+".curve"), data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(digest); ok {
				t.Fatal("fault-damaged entry was served")
			}
			matches, err := filepath.Glob(filepath.Join(s.Dir(), digest+".corrupt*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(matches) == 0 {
				t.Fatal("damaged entry not quarantined")
			}
			ent := testEntry(testCurve())
			want := mustJSON(t, ent)
			if err := s.Put(digest, ent); err != nil {
				t.Fatalf("re-derive after quarantine: %v", err)
			}
			got, ok := s.Get(digest)
			if !ok {
				t.Fatal("re-derived entry missed")
			}
			if string(mustJSON(t, got)) != string(want) {
				t.Fatal("re-derived entry not byte-identical")
			}
		})
	}
}

// TestFaultENOSPCDisables: a full disk (every write attempt ENOSPC,
// even after an emergency GC) disables the tier for the life of the
// process — reads of existing entries keep working, writes become
// explicit ErrDisabled no-ops, and the process never crashes.
func TestFaultENOSPCDisables(t *testing.T) {
	ffs := &shard.FaultFS{Fail: func(op shard.Op, _ string) error {
		if op == shard.OpWrite {
			return syscall.ENOSPC
		}
		return nil
	}}
	s := open(t, store.Options{FS: ffs, Logf: t.Logf})
	digest := shard.Digest("workload-a")
	if err := s.Put(digest, testEntry(testCurve())); err == nil {
		t.Fatal("Put on a full disk succeeded")
	}
	if !s.StatsSnapshot().Disabled {
		t.Fatal("store still enabled after persistent ENOSPC")
	}
	if err := s.Put(digest, testEntry(testCurve())); !errors.Is(err, store.ErrDisabled) {
		t.Fatalf("Put after disable = %v, want ErrDisabled", err)
	}
	if !s.StatsSnapshot().Disabled {
		t.Fatal("stats do not report the disabled tier")
	}
}

// TestFaultENOSPCRecovers: a single ENOSPC triggers the emergency-GC
// retry; when that retry succeeds the tier stays up.
func TestFaultENOSPCRecovers(t *testing.T) {
	ffs := &shard.FaultFS{Fail: shard.FailN(shard.OpWrite, 1, syscall.ENOSPC)}
	s := open(t, store.Options{FS: ffs, Logf: t.Logf})
	digest := shard.Digest("workload-a")
	ent := testEntry(testCurve())
	if err := s.Put(digest, ent); err != nil {
		t.Fatalf("Put with transient ENOSPC = %v, want recovery via GC+retry", err)
	}
	if s.StatsSnapshot().Disabled {
		t.Fatal("store disabled by a transient ENOSPC")
	}
	got, ok := s.Get(digest)
	if !ok {
		t.Fatal("recovered entry missed")
	}
	if string(mustJSON(t, got)) != string(mustJSON(t, ent)) {
		t.Fatal("recovered entry not byte-identical")
	}
}

// TestFaultUnwritableDisables: permission-class write failures disable
// immediately (no GC can free permissions).
func TestFaultUnwritableDisables(t *testing.T) {
	ffs := &shard.FaultFS{Fail: shard.FailN(shard.OpWrite, 1, syscall.EACCES)}
	s := open(t, store.Options{FS: ffs, Logf: t.Logf})
	if err := s.Put(shard.Digest("workload-a"), testEntry(testCurve())); err == nil {
		t.Fatal("Put on an unwritable directory succeeded")
	}
	if !s.StatsSnapshot().Disabled {
		t.Fatal("store still enabled after EACCES")
	}
}

// TestFaultConcurrentWritersAndReaders hammers one digest from many
// writers and readers at once (run under -race): rename-commit means a
// reader sees either a miss or the complete, byte-identical entry —
// never a torn mix.
func TestFaultConcurrentWritersAndReaders(t *testing.T) {
	dir := t.TempDir()
	digest := shard.Digest("contended")
	ent := testEntry(testCurve())
	want := string(mustJSON(t, ent))

	// Two handles on one directory, as in a warmer racing a server.
	a := open(t, store.Options{Dir: dir})
	b := open(t, store.Options{Dir: dir})

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		s := a
		if i%2 == 1 {
			s = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if err := s.Put(digest, ent); err != nil {
					t.Errorf("concurrent Put: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		s := a
		if i%2 == 1 {
			s = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				got, ok := s.Get(digest)
				if !ok {
					continue // miss is legal while the first Put races
				}
				if string(mustJSON(t, got)) != want {
					t.Error("concurrent Get returned a non-byte-identical entry")
					return
				}
			}
		}()
	}
	wg.Wait()
	got, ok := a.Get(digest)
	if !ok {
		t.Fatal("entry missing after the storm")
	}
	if string(mustJSON(t, got)) != want {
		t.Fatal("final entry not byte-identical")
	}
}

// TestFaultLockSkipsGC: a GC lock that cannot be taken (another process
// sweeping, or an unopenable lock file) skips the sweep — the store
// stays over its cap without losing an entry or failing a Put — and the
// next sweep that gets the lock shrinks it.
func TestFaultLockSkipsGC(t *testing.T) {
	var lockBroken atomic.Bool
	lockBroken.Store(true)
	ffs := &shard.FaultFS{Fail: func(op shard.Op, _ string) error {
		if op == shard.OpLock && lockBroken.Load() {
			return syscall.EWOULDBLOCK
		}
		return nil
	}}
	s := open(t, store.Options{FS: ffs, MaxBytes: 1, Logf: t.Logf}) // 1 MiB cap
	big := bigCurve(10000)                                          // ~410 KiB per entry
	digests := []string{shard.Digest("a"), shard.Digest("b"), shard.Digest("c")}
	for _, d := range digests {
		if err := s.Put(d, testEntry(big)); err != nil {
			t.Fatalf("Put with the GC lock held elsewhere: %v", err)
		}
	}
	s.GC()
	for _, d := range digests {
		if _, ok := s.Get(d); !ok {
			t.Fatal("entry lost while GC could not lock")
		}
	}
	if st := s.StatsSnapshot(); st.GCRemoved != 0 || st.Entries != 3 {
		t.Fatalf("stats %+v after lockless GCs, want 3 entries and nothing removed", st)
	}
	lockBroken.Store(false)
	s.GC()
	if st := s.StatsSnapshot(); st.GCRemoved == 0 || st.Bytes > st.MaxBytes {
		t.Fatalf("stats %+v after a locked GC, want the directory back under its cap", st)
	}
}

// TestFaultChtimesStillHits: the recency touch is best-effort — a Get
// whose Chtimes fails still returns the verified entry.
func TestFaultChtimesStillHits(t *testing.T) {
	ffs := &shard.FaultFS{Fail: func(op shard.Op, _ string) error {
		if op == shard.OpChtimes {
			return syscall.EROFS
		}
		return nil
	}}
	s := open(t, store.Options{FS: ffs, Logf: t.Logf})
	digest := shard.Digest("workload-a")
	ent := testEntry(testCurve())
	if err := s.Put(digest, ent); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(digest)
	if !ok || string(mustJSON(t, got)) != string(mustJSON(t, ent)) {
		t.Fatalf("Get with a failing recency touch: ok=%v", ok)
	}
	if n := ffs.Count(shard.OpChtimes); n != 1 {
		t.Fatalf("%d recency touches, want 1", n)
	}
	if st := s.StatsSnapshot(); st.Hits != 1 || st.Quarantines != 0 {
		t.Fatalf("stats %+v, want 1 hit and no quarantine", st)
	}
}
