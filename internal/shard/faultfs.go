package shard

import (
	"context"
	"fmt"
	"io/fs"
	"sync"
	"time"

	"repro/internal/pareto"
)

// Op names a filesystem operation a FaultFS can intercept.
type Op string

// The intercepted operations, in the order a checkpoint flush performs
// them: CreateTemp, Write, Sync, Close, Rename, SyncDir (plus ReadFile on
// resume, Remove/Glob/Stat for cleanup, sweep and quarantine, and the
// directory, recency and lock operations of the store and the spool).
const (
	OpReadFile   Op = "readfile"
	OpCreateTemp Op = "createtemp"
	OpWrite      Op = "write"
	OpSync       Op = "sync"
	OpClose      Op = "close"
	OpRename     Op = "rename"
	OpRemove     Op = "remove"
	OpSyncDir    Op = "syncdir"
	OpGlob       Op = "glob"
	OpStat       Op = "stat"
	OpRemoveAll  Op = "removeall"
	OpMkdirAll   Op = "mkdirall"
	OpChtimes    Op = "chtimes"
	OpLock       Op = "lock"
)

// FaultFS wraps an FS with scripted fault injection — the seam the
// robustness suite drives. Every operation first consults Fail; a non-nil
// return is injected as that operation's error. A failed OpWrite still
// writes the first half of the payload before reporting the error, so an
// injected write failure produces exactly the torn temp file a real
// partial write (disk-full, process kill mid-write) leaves behind.
//
// All operations are logged (op + primary path, in execution order) and
// counted, so tests can assert ordering contracts such as "the file sync
// happens before the rename".
type FaultFS struct {
	// Inner is the wrapped filesystem; nil means the real OS filesystem.
	Inner FS

	// Fail, when non-nil, is consulted before every operation with the
	// operation and its primary path; returning a non-nil error injects
	// that failure. Called under the FaultFS mutex: keep it fast and do
	// not re-enter the filesystem from inside it.
	Fail func(op Op, path string) error

	mu     sync.Mutex
	log    []string
	counts map[Op]int
}

// check records the operation and returns the injected error, if any.
func (f *FaultFS) check(op Op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, fmt.Sprintf("%s %s", op, path))
	if f.counts == nil {
		f.counts = map[Op]int{}
	}
	f.counts[op]++
	if f.Fail != nil {
		return f.Fail(op, path)
	}
	return nil
}

// Log returns a copy of the operation log ("op path" per entry, in
// execution order).
func (f *FaultFS) Log() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log...)
}

// Count reports how many times op was attempted (including injected
// failures).
func (f *FaultFS) Count(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

func (f *FaultFS) inner() FS { return orOS(f.Inner) }

// pass runs an error-only operation on the inner filesystem unless Fail
// injects an error first.
func (f *FaultFS) pass(op Op, path string, run func(FS) error) error {
	if err := f.check(op, path); err != nil {
		return err
	}
	return run(f.inner())
}

// ReadFile implements FS.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.check(OpReadFile, name); err != nil {
		return nil, err
	}
	return f.inner().ReadFile(name)
}

// CreateTemp implements FS.
func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.check(OpCreateTemp, dir); err != nil {
		return nil, err
	}
	file, err := f.inner().CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

// Rename implements FS.
func (f *FaultFS) Rename(oldpath, newpath string) error {
	return f.pass(OpRename, newpath, func(in FS) error { return in.Rename(oldpath, newpath) })
}

// Remove implements FS.
func (f *FaultFS) Remove(name string) error {
	return f.pass(OpRemove, name, func(in FS) error { return in.Remove(name) })
}

// RemoveAll implements FS.
func (f *FaultFS) RemoveAll(path string) error {
	return f.pass(OpRemoveAll, path, func(in FS) error { return in.RemoveAll(path) })
}

// MkdirAll implements FS.
func (f *FaultFS) MkdirAll(dir string) error {
	return f.pass(OpMkdirAll, dir, func(in FS) error { return in.MkdirAll(dir) })
}

// SyncDir implements FS.
func (f *FaultFS) SyncDir(dir string) error {
	return f.pass(OpSyncDir, dir, func(in FS) error { return in.SyncDir(dir) })
}

// Chtimes implements FS.
func (f *FaultFS) Chtimes(name string, atime, mtime time.Time) error {
	return f.pass(OpChtimes, name, func(in FS) error { return in.Chtimes(name, atime, mtime) })
}

// Glob implements FS.
func (f *FaultFS) Glob(pattern string) ([]string, error) {
	if err := f.check(OpGlob, pattern); err != nil {
		return nil, err
	}
	return f.inner().Glob(pattern)
}

// Stat implements FS.
func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err := f.check(OpStat, name); err != nil {
		return nil, err
	}
	return f.inner().Stat(name)
}

// Lock implements FS.
func (f *FaultFS) Lock(name string) (func(), error) {
	if err := f.check(OpLock, name); err != nil {
		return nil, err
	}
	return f.inner().Lock(name)
}

// faultFile interposes the per-file operations of a temp file.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	if err := f.fs.check(OpWrite, f.inner.Name()); err != nil {
		// Torn write: half the payload lands before the failure, like a
		// disk filling up or a kill mid-write.
		n, _ := f.inner.Write(p[:len(p)/2])
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	return f.fs.pass(OpSync, f.inner.Name(), func(FS) error { return f.inner.Sync() })
}

func (f *faultFile) Close() error {
	return f.fs.pass(OpClose, f.inner.Name(), func(FS) error { return f.inner.Close() })
}

func (f *faultFile) Name() string { return f.inner.Name() }

// FailN returns a Fail hook that injects err on the first n occurrences
// of op, then lets everything pass — the canonical transient fault.
func FailN(op Op, n int, err error) func(Op, string) error {
	var remaining = n
	return func(o Op, _ string) error {
		if o == op && remaining > 0 {
			remaining--
			return err
		}
		return nil
	}
}

// KillAtIndex wraps a job's derive hook so the attempt dies with err the
// first time a block containing global index idx is derived — the
// kill-at-index hook the robustness suite uses to simulate a crash at a
// deterministic point of the traversal. Subsequent attempts (a scheduler
// retry, a manual resume) run unmodified.
func KillAtIndex(job Job, idx int64, err error) Job {
	derive := job.Derive
	var mu sync.Mutex
	killed := false
	job.Derive = func(ctx context.Context, floor, lo, hi int64) (*pareto.Curve, int64, error) {
		mu.Lock()
		kill := !killed && lo <= idx && idx < hi
		if kill {
			killed = true
		}
		mu.Unlock()
		if kill {
			return nil, 0, err
		}
		return derive(ctx, floor, lo, hi)
	}
	return job
}
