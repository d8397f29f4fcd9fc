package shard

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// FS abstracts every filesystem operation the checkpoint path performs,
// so the robustness suite can inject write, sync, rename and read
// failures (see FaultFS) without touching the real disk contract. The
// zero value of RunOptions uses the real OS filesystem; production code
// never needs to implement this.
type FS interface {
	// ReadFile reads the whole named file (os.ReadFile).
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temporary file in dir (os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath (os.Rename).
	Rename(oldpath, newpath string) error
	// Remove deletes the named file (os.Remove).
	Remove(name string) error
	// SyncDir durably commits a directory's entries — the fsync that
	// makes a rename survive a host crash, not just a process kill.
	SyncDir(dir string) error
	// Glob lists the names matching pattern (filepath.Glob), used by the
	// stale-temp sweep on Run startup.
	Glob(pattern string) ([]string, error)
	// Stat describes the named file (os.Stat), used to pick a free
	// quarantine name.
	Stat(name string) (fs.FileInfo, error)
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

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

func (osFS) Glob(pattern string) ([]string, error) { return filepath.Glob(pattern) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

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
