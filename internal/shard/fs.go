package shard

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"time"
)

// FS is the one durable-file layer: every file operation of the shard
// checkpoints, the curve store, the fleet spool and quarantines, and the
// server's spool and worker directories goes through it, so the
// robustness suites can inject failures (see FaultFS) into all of them.
// A nil FS option means the real OS filesystem (OS).
type FS interface {
	// ReadFile reads the whole named file (os.ReadFile).
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temporary file in dir (os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath (os.Rename).
	Rename(oldpath, newpath string) error
	// Remove deletes the named file or empty directory (os.Remove).
	Remove(name string) error
	// RemoveAll deletes a directory tree (os.RemoveAll).
	RemoveAll(path string) error
	// MkdirAll creates dir and its parents, mode 0755 (os.MkdirAll).
	MkdirAll(dir string) error
	// SyncDir durably commits a directory's entries — the fsync that
	// makes a rename survive a host crash, not just a process kill.
	SyncDir(dir string) error
	// Glob lists the names matching pattern (filepath.Glob).
	Glob(pattern string) ([]string, error)
	// Stat describes the named file (os.Stat).
	Stat(name string) (fs.FileInfo, error)
	// Chtimes sets the named file's access and modification times
	// (os.Chtimes).
	Chtimes(name string, atime, mtime time.Time) error
	// Lock takes an exclusive lock on the named file, creating it if
	// absent, and returns its release; a lock held elsewhere fails at
	// once. The OS lock is a flock, which the kernel drops with its
	// holder, so a crashed holder never wedges it.
	Lock(name string) (unlock func(), err error)
}

// File is the writable temp-file handle CreateTemp returns: enough
// surface for the write → sync → close → rename checkpoint sequence.
type File interface {
	io.Writer
	// Sync flushes the file's data to stable storage (os.File.Sync).
	Sync() error
	// Close closes the handle.
	Close() error
	// Name reports the file's path.
	Name() string
}

// osFS is the real filesystem; the default when RunOptions.FS is nil.
type osFS struct{}

// OS returns the real-filesystem implementation of FS.
func OS() FS { return osFS{} }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) Chtimes(name string, atime, mtime time.Time) error {
	return os.Chtimes(name, atime, mtime)
}

func (osFS) Lock(name string) (func(), error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR, 0o644)
	if err == nil {
		if err = syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err == nil {
			return func() { f.Close() }, nil // closing the file drops the flock
		}
		f.Close()
	}
	return nil, err
}

// orOS resolves a possibly-nil FS option to the real filesystem.
func orOS(fsys FS) FS {
	if fsys == nil {
		return osFS{}
	}
	return fsys
}

// WriteFileAtomic atomically and durably replaces path with data over
// fsys (nil = OS): the bytes go to a "<base>.tmp*" temp file in the same
// directory, which is fsynced and closed, then renamed over path, and
// the directory is fsynced. The rename makes a kill mid-write leave the
// previous file intact rather than a truncated one; the two syncs make
// the new file survive a host crash — without the file sync the rename
// can land before the data (a zero-length or torn "committed" file), and
// without the directory sync the rename itself can be lost. A failed
// write removes its temp file.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	fsys = orOS(fsys)
	dir := filepath.Dir(path)
	tmp, err := fsys.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		// Data must be durable before the rename commits it: sync the
		// file first, then close.
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		fsys.Remove(tmp.Name())
		if werr == nil {
			werr = cerr
		}
		return fmt.Errorf("writing %s: %w", path, werr)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		fsys.Remove(tmp.Name())
		return fmt.Errorf("committing %s: %w", path, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("syncing directory of %s: %w", path, err)
	}
	return nil
}

// SweepTemps removes the "<base>.tmp*" temps WriteFileAtomic leaves
// beside target when a process dies between CreateTemp and Rename, if
// at least olderThan old, and returns their names; target's base may be
// a glob ("*.curve"). The owner of a target passes 0; a directory that
// other live writers share passes an age no write takes, so a fresh temp
// about to be renamed survives. Leftover temps cost disk, never
// correctness.
func SweepTemps(fsys FS, target string, olderThan time.Duration) (removed []string, err error) {
	fsys = orOS(fsys)
	matches, err := fsys.Glob(target + ".tmp*")
	if err != nil {
		return nil, fmt.Errorf("sweeping stale temps for %s: %w", target, err)
	}
	cutoff := time.Now().Add(-olderThan)
	for _, m := range matches {
		if olderThan > 0 {
			if fi, serr := fsys.Stat(m); serr != nil || fi.ModTime().After(cutoff) {
				continue
			}
		}
		if rerr := fsys.Remove(m); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			err = fmt.Errorf("sweeping stale temp %s: %w", m, rerr)
			continue
		}
		removed = append(removed, m)
	}
	return removed, err
}

// Quarantine renames path over fsys (nil = OS) to the first free name
// among aside, aside.1, aside.2, … and returns that name: the evidence of
// a corrupt file survives for inspection while its slot frees for a
// replacement, and repeated quarantines of one slot never overwrite each
// other.
func Quarantine(fsys FS, path, aside string) (string, error) {
	fsys = orOS(fsys)
	for i := 0; ; i++ {
		qpath := aside
		if i > 0 {
			qpath = fmt.Sprintf("%s.%d", aside, i)
		}
		if _, err := fsys.Stat(qpath); err == nil {
			continue // name taken by an earlier quarantine
		} else if !errors.Is(err, fs.ErrNotExist) {
			return "", err
		}
		if err := fsys.Rename(path, qpath); err != nil {
			return "", err
		}
		return qpath, nil
	}
}
