package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pareto"
)

// syntheticDerive is a cheap deterministic DeriveFunc: every index maps to
// a fixed (buffer, accesses) point, so curve differences expose any lost,
// duplicated or corrupted work.
func syntheticDerive(ctx context.Context, _, lo, hi int64) (*pareto.Curve, int64, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	b := pareto.NewBuilder()
	for i := lo; i < hi; i++ {
		buf := (i*2654435761)%1000 + 1
		b.Add(buf, 2000-buf)
	}
	c := b.Curve()
	c.AlgoMinBytes = 11
	c.TotalOperandBytes = 22
	return c, hi - lo, nil
}

func syntheticJob(items int64, plan Plan) Job {
	return Job{
		Kind:           KindBound,
		Workload:       "synthetic",
		WorkloadDigest: Digest("synthetic-workload"),
		OptionsDigest:  Digest("synthetic-options"),
		Items:          items,
		Plan:           plan,
		Derive:         syntheticDerive,
	}
}

// curveBytes is the byte-for-byte comparison the parity tests pin: the
// curve's JSON serialization, annotations included.
func curveBytes(t *testing.T, c *pareto.Curve) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// completeRun derives the job to completion and returns the curve bytes.
func completeRun(t *testing.T, job Job, path string) string {
	t.Helper()
	p, _, err := Run(context.Background(), job, RunOptions{Path: path, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	return curveBytes(t, p.Curve)
}

// failNth returns a Fail hook injecting err on exactly the nth occurrence
// of op — fault injection aimed at a specific flush of a run.
func failNth(op Op, nth int, err error) func(Op, string) error {
	var count int
	return func(o Op, _ string) error {
		if o != op {
			return nil
		}
		count++
		if count == nth {
			return err
		}
		return nil
	}
}

// TestCorruptPartialMatrix drives the corruption matrix from the failure
// model: each corruption of a checkpoint file must surface as the specific
// named error class — ErrCorruptPartial for unreadable or structurally
// invalid files, ErrForeignPartial for readable files of a different
// derivation — both from ReadPartial (where applicable) and from a Run
// trying to resume on top of it. Never a silent overwrite.
func TestCorruptPartialMatrix(t *testing.T) {
	const items = 100
	job := syntheticJob(items, Plan{Index: 0, Count: 2})

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		want    error
	}{
		{
			name: "truncated-json",
			corrupt: func(t *testing.T, path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: ErrCorruptPartial,
		},
		{
			name: "zeroed-tail",
			corrupt: func(t *testing.T, path string) {
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				for i := len(data) - len(data)/3; i < len(data); i++ {
					data[i] = 0
				}
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: ErrCorruptPartial,
		},
		{
			name: "wrong-format-version",
			corrupt: func(t *testing.T, path string) {
				rewritePartial(t, path, func(p *Partial) { p.Manifest.FormatVersion = 99 })
			},
			want: ErrCorruptPartial,
		},
		{
			name: "flipped-workload-digest",
			corrupt: func(t *testing.T, path string) {
				rewritePartial(t, path, func(p *Partial) { p.Manifest.WorkloadDigest = Digest("tampered") })
			},
			want: ErrForeignPartial,
		},
		{
			name: "wrong-engine-version",
			corrupt: func(t *testing.T, path string) {
				rewritePartial(t, path, func(p *Partial) { p.Manifest.Engine = "orojenesis/0" })
			},
			want: ErrForeignPartial,
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "p.json")
			completeRun(t, job, path)
			tc.corrupt(t, path)

			if errors.Is(tc.want, ErrCorruptPartial) {
				if _, err := ReadPartial(nil, path); !errors.Is(err, ErrCorruptPartial) {
					t.Fatalf("ReadPartial err = %v, want ErrCorruptPartial", err)
				}
			}
			_, _, err := Run(context.Background(), job, RunOptions{Path: path, CheckpointEvery: 10})
			if !errors.Is(err, tc.want) {
				t.Fatalf("Run over corrupted checkpoint: err = %v, want %v", err, tc.want)
			}
			// The corrupted evidence must still be there, untouched.
			if _, serr := os.Stat(path); serr != nil {
				t.Fatalf("refused run removed the corrupt file: %v", serr)
			}
		})
	}
}

// mergeDegradedFiles reads the named partial-frontier files and merges
// them best-effort, as shardmerge -allow-partial does.
func mergeDegradedFiles(paths ...string) (*Degraded, error) {
	partials, err := readPartials(nil, paths)
	if err != nil {
		return nil, err
	}
	return MergeDegraded(partials...)
}

// MergeFiles reads the named partial-frontier files over fsys (nil = OS)
// and merges them strictly, as shardmerge does. It is exported to the
// package's external tests, which merge the files their runs leave.
func MergeFiles(fsys FS, paths ...string) (*pareto.Curve, error) {
	partials, err := readPartials(fsys, paths)
	if err != nil {
		return nil, err
	}
	return Merge(partials...)
}

// readPartials reads the named partial-frontier files over fsys.
func readPartials(fsys FS, paths []string) ([]*Partial, error) {
	partials := make([]*Partial, len(paths))
	for i, path := range paths {
		p, err := ReadPartial(fsys, path)
		if err != nil {
			return nil, err
		}
		partials[i] = p
	}
	return partials, nil
}

// rewritePartial loads a valid partial, applies mutate, and writes it
// back — corruption that keeps the JSON well-formed.
func rewritePartial(t *testing.T, path string, mutate func(*Partial)) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p Partial
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	mutate(&p)
	out, err := json.Marshal(&p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedFailureNeverCorrupts is the core robustness property: for a
// fault injected into any operation of the checkpoint sequence, the run
// fails with a named, non-context error, whatever is on disk at the
// checkpoint path is still a readable partial (or absent), and simply
// rerunning completes with the byte-identical curve.
func TestInjectedFailureNeverCorrupts(t *testing.T) {
	const items = 100
	plan := Plan{Index: 0, Count: 1}
	want := completeRun(t, syntheticJob(items, plan), filepath.Join(t.TempDir(), "clean.json"))
	errBoom := errors.New("injected fault")

	for _, op := range []Op{OpCreateTemp, OpWrite, OpSync, OpClose, OpRename, OpSyncDir} {
		for _, nth := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/flush-%d", op, nth), func(t *testing.T) {
				path := filepath.Join(t.TempDir(), "p.json")
				ffs := &FaultFS{Fail: failNth(op, nth, errBoom)}
				_, _, err := Run(context.Background(), syntheticJob(items, plan),
					RunOptions{Path: path, CheckpointEvery: 10, FS: ffs})
				if err == nil {
					t.Fatalf("run succeeded despite injected %s failure", op)
				}
				if !errors.Is(err, errBoom) {
					t.Fatalf("err = %v does not name the injected fault", err)
				}
				if errors.Is(err, ErrCorruptPartial) || errors.Is(err, ErrForeignPartial) {
					t.Fatalf("transient I/O failure misclassified as %v", err)
				}

				// Whatever is on disk must be absent or a valid resumable
				// checkpoint — never a torn artifact.
				if _, serr := os.Stat(path); serr == nil {
					if _, rerr := ReadPartial(nil, path); rerr != nil {
						t.Fatalf("checkpoint at %s is corrupt after injected %s failure: %v", path, op, rerr)
					}
				}

				// Retry on a clean filesystem completes, byte-identically.
				p, stats, err := Run(context.Background(), syntheticJob(items, plan),
					RunOptions{Path: path, CheckpointEvery: 10})
				if err != nil {
					t.Fatalf("retry failed: %v", err)
				}
				if nth > 1 && !stats.Resumed {
					t.Fatal("retry after a post-first-flush failure did not resume from the surviving checkpoint")
				}
				if got := curveBytes(t, p.Curve); got != want {
					t.Fatalf("retry curve differs from clean run\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// TestFlushSyncsFileBeforeRenameAndDirAfter pins the durability ordering
// of the atomic checkpoint flush via the FaultFS operation log: within
// each flush, the temp file is synced before the rename commits it, and
// the directory is synced after.
func TestFlushSyncsFileBeforeRenameAndDirAfter(t *testing.T) {
	ffs := &FaultFS{}
	path := filepath.Join(t.TempDir(), "p.json")
	if _, _, err := Run(context.Background(), syntheticJob(100, Plan{Index: 0, Count: 1}),
		RunOptions{Path: path, CheckpointEvery: 10, FS: ffs}); err != nil {
		t.Fatal(err)
	}
	flushes := 0
	syncedSinceTemp, renamedSinceTemp := false, false
	for _, entry := range ffs.Log() {
		op := Op(strings.SplitN(entry, " ", 2)[0])
		switch op {
		case OpCreateTemp:
			syncedSinceTemp, renamedSinceTemp = false, false
		case OpSync:
			if renamedSinceTemp {
				t.Fatalf("file sync after rename in flush %d:\n%s", flushes, strings.Join(ffs.Log(), "\n"))
			}
			syncedSinceTemp = true
		case OpRename:
			if !syncedSinceTemp {
				t.Fatalf("rename without a prior file sync in flush %d:\n%s", flushes, strings.Join(ffs.Log(), "\n"))
			}
			renamedSinceTemp = true
		case OpSyncDir:
			if !renamedSinceTemp {
				t.Fatalf("directory sync before rename in flush %d:\n%s", flushes, strings.Join(ffs.Log(), "\n"))
			}
			flushes++
		}
	}
	if flushes < 2 {
		t.Fatalf("observed %d complete flushes, want at least 2", flushes)
	}
	if ffs.Count(OpSync) < flushes || ffs.Count(OpSyncDir) < flushes {
		t.Fatalf("sync counts (%d file, %d dir) below flush count %d",
			ffs.Count(OpSync), ffs.Count(OpSyncDir), flushes)
	}
}

// TestRunSweepsStaleTemps: temp files a killed predecessor left behind for
// this checkpoint target are removed on startup; a sibling shard's temps
// in the same directory are not touched.
func TestRunSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	stale := []string{
		filepath.Join(dir, "p.json.tmp123"),
		filepath.Join(dir, "p.json.tmp999999"),
	}
	sibling := filepath.Join(dir, "other.json.tmp42")
	for _, f := range append(stale, sibling) {
		if err := os.WriteFile(f, []byte("torn half-written checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, stats, err := Run(context.Background(), syntheticJob(50, Plan{Index: 0, Count: 1}),
		RunOptions{Path: path, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if stats.SweptTemps != len(stale) {
		t.Fatalf("swept %d stale temps, want %d", stats.SweptTemps, len(stale))
	}
	for _, f := range stale {
		if _, err := os.Stat(f); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("stale temp %s survived the sweep", f)
		}
	}
	if _, err := os.Stat(sibling); err != nil {
		t.Fatalf("sibling shard's temp was swept: %v", err)
	}
}

// TestKillAtIndexThenResume: a shard killed at a deterministic traversal
// index resumes from its last flushed checkpoint and finishes with the
// byte-identical curve; the kill never repeats completed blocks.
func TestKillAtIndexThenResume(t *testing.T) {
	const items = 100
	plan := Plan{Index: 0, Count: 1}
	want := completeRun(t, syntheticJob(items, plan), filepath.Join(t.TempDir(), "clean.json"))

	errKill := errors.New("simulated crash")
	path := filepath.Join(t.TempDir(), "p.json")
	job := KillAtIndex(syntheticJob(items, plan), 47, errKill)

	_, _, err := Run(context.Background(), job, RunOptions{Path: path, CheckpointEvery: 10})
	if !errors.Is(err, errKill) {
		t.Fatalf("err = %v, want the kill error", err)
	}
	cp, err := ReadPartial(nil, path)
	if err != nil {
		t.Fatalf("no resumable checkpoint after kill: %v", err)
	}
	if got := cp.Manifest.CompletedThrough; got != 40 {
		t.Fatalf("checkpoint at %d, want 40 (last flushed block before index 47)", got)
	}

	// The KillAtIndex wrapper only fires once: the resume runs clean.
	p, stats, err := Run(context.Background(), job, RunOptions{Path: path, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed || stats.ResumedFrom != 40 {
		t.Fatalf("resume stats %+v, want Resumed at 40", stats)
	}
	if got := curveBytes(t, p.Curve); got != want {
		t.Fatalf("kill+resume curve differs from clean run\n got %s\nwant %s", got, want)
	}
}

// TestCancelDuringBlockLeavesResumableCheckpoint: a context cancelled
// inside a checkpoint block (the SIGINT/SIGTERM path) surrenders with the
// last flushed checkpoint intact, and a rerun resumes to the
// byte-identical result.
func TestCancelDuringBlockLeavesResumableCheckpoint(t *testing.T) {
	const items = 100
	plan := Plan{Index: 0, Count: 1}
	want := completeRun(t, syntheticJob(items, plan), filepath.Join(t.TempDir(), "clean.json"))

	path := filepath.Join(t.TempDir(), "p.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	job := syntheticJob(items, plan)
	inner := job.Derive
	job.Derive = func(ctx context.Context, floor, lo, hi int64) (*pareto.Curve, int64, error) {
		if lo >= 30 {
			// Cancel mid-block: the derive observes it and aborts, like the
			// traversal engine does at chunk granularity.
			cancel()
		}
		return inner(ctx, floor, lo, hi)
	}

	p, _, err := Run(ctx, job, RunOptions{Path: path, CheckpointEvery: 10})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if p == nil || p.Manifest.Complete() {
		t.Fatalf("interrupted run returned %+v, want an incomplete resumable partial", p)
	}
	cp, rerr := ReadPartial(nil, path)
	if rerr != nil {
		t.Fatalf("checkpoint unreadable after cancellation: %v", rerr)
	}
	if cp.Manifest.CompletedThrough != p.Manifest.CompletedThrough {
		t.Fatalf("disk checkpoint at %d, returned partial at %d",
			cp.Manifest.CompletedThrough, p.Manifest.CompletedThrough)
	}

	done, stats, err := Run(context.Background(), syntheticJob(items, plan),
		RunOptions{Path: path, CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Resumed {
		t.Fatal("rerun did not resume from the interrupt checkpoint")
	}
	if got := curveBytes(t, done.Curve); got != want {
		t.Fatalf("interrupt+resume curve differs from clean run\n got %s\nwant %s", got, want)
	}
}

// TestDegradedMergeAnnotations: a best-effort merge over missing and
// incomplete shards reports exactly what it covered, and its JSON
// serialization always carries the degraded annotation.
func TestDegradedMergeAnnotations(t *testing.T) {
	const items = 90
	dir := t.TempDir()
	// Shard 0 of 3: complete. Shard 1: absent. Shard 2: interrupted early.
	p0path := filepath.Join(dir, "s0.json")
	completeRun(t, syntheticJob(items, Plan{Index: 0, Count: 3}), p0path)

	p2path := filepath.Join(dir, "s2.json")
	errKill := errors.New("kill")
	killed := KillAtIndex(syntheticJob(items, Plan{Index: 2, Count: 3}), 75, errKill)
	if _, _, err := Run(context.Background(), killed, RunOptions{Path: p2path, CheckpointEvery: 5}); !errors.Is(err, errKill) {
		t.Fatalf("setup kill: %v", err)
	}

	d, err := mergeDegradedFiles(p0path, p2path)
	if err != nil {
		t.Fatal(err)
	}
	if d.Complete() {
		t.Fatal("degraded merge over missing+incomplete shards claims completeness")
	}
	// Shard 0 covers [0,30); shard 2 covers [60,75) (last flush before 75).
	if d.CoveredIndices != 45 || d.Items != items {
		t.Fatalf("covered %d of %d, want 45 of %d", d.CoveredIndices, d.Items, items)
	}
	if d.CoveredFraction != 0.5 {
		t.Fatalf("covered fraction %v, want 0.5", d.CoveredFraction)
	}
	if len(d.MissingShards) != 1 || d.MissingShards[0] != 1 {
		t.Fatalf("missing shards %v, want [1]", d.MissingShards)
	}
	if len(d.IncompleteShards) != 1 || d.IncompleteShards[0] != 2 {
		t.Fatalf("incomplete shards %v, want [2]", d.IncompleteShards)
	}

	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"degraded":true`) {
		t.Fatalf("degraded envelope lacks the annotation: %s", data)
	}
	var back Degraded
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.CoveredFraction != d.CoveredFraction || back.Curve == nil {
		t.Fatalf("degraded envelope did not round-trip: %+v", back)
	}

	// The strict merge must still refuse the same set.
	if _, err := MergeFiles(nil, p0path, p2path); err == nil {
		t.Fatal("strict merge accepted an incomplete shard set")
	}
}

// TestMergeDegradedRefusesForeign: best-effort never means merging
// partials of different derivations.
func TestMergeDegradedRefusesForeign(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	completeRun(t, syntheticJob(90, Plan{Index: 0, Count: 3}), a)
	other := syntheticJob(90, Plan{Index: 1, Count: 3})
	other.WorkloadDigest = Digest("a different workload")
	completeRun(t, other, b)
	if _, err := mergeDegradedFiles(a, b); !errors.Is(err, ErrForeignPartial) {
		t.Fatalf("err = %v, want ErrForeignPartial", err)
	}
}
