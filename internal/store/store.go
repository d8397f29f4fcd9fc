// Package store is the durable curve tier: a content-addressed on-disk
// cache of derived Pareto curves, keyed by the same canonical
// workload/options digests the shard format and the derivation server
// already use. A derived curve is valid forever for its digest — the
// digest hashes everything that affects the result and nothing that does
// not — so persisting it turns every repeated workload shape into a disk
// hit instead of a re-derivation, across process restarts and across
// processes (a CLI warmer and a running orojenesisd share one
// directory).
//
// A disk cache is only a win if a torn write or a flipped byte can never
// surface as a wrong curve, so every entry is defended in depth:
//
//   - Writes are atomic and durable: temp file in the same directory,
//     fsync the file, rename over the target, fsync the directory — the
//     checkpoint discipline internal/shard pinned for partial frontiers.
//     A kill mid-write leaves a stale temp (swept on Open), never a torn
//     entry under the final name.
//   - Reads verify before they trust: the envelope's format version,
//     engine revision, and recorded digest must match, and the payload
//     bytes must hash to the recorded sha256. Anything else — truncated
//     JSON, a zeroed tail, a flipped byte, a stale engine, a misnamed
//     file — is quarantined to <digest>.corrupt[.N] and reported as a
//     miss, so the caller re-derives and rewrites. A corrupt entry can
//     cost a derivation; it can never alter a served curve.
//   - The store degrades, never fails: an unwritable directory or a disk
//     that stays full after GC disables the tier (logged once, visible
//     in Stats), and callers fall back to deriving as if the store were
//     never configured.
//   - Degraded (partial-coverage) curves are rejected by Put: the store
//     only ever holds exact results.
//
// Capacity is a byte cap enforced by LRU-by-recency GC: Get refreshes an
// entry's file time, GC removes the coldest entries until the directory
// is back under the cap. Cross-process safety comes from the atomicity
// of rename (concurrent writers of one digest write identical bytes, so
// either version is correct) plus a flock'd lock file that serializes GC
// sweeps. See docs/curve-store.md for the layout and failure model.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/workload"
)

// FormatVersion is the entry-envelope schema version this package
// writes; readers refuse other versions (quarantine-and-re-derive, like
// any other invalid entry).
const FormatVersion = 1

// DefaultMaxBytes is the GC byte cap when Options.MaxBytes is zero or
// negative: 1 GiB.
const DefaultMaxBytes = 1 << 30

// MinMaxBytes is the smallest byte cap Open accepts; smaller requested
// caps are clamped up to it so a typo'd -store-max-bytes cannot turn the
// store into a thrash loop that GCs every entry it writes.
const MinMaxBytes = 1 << 20

// DefaultStaleTempAge is how old a leftover temp file must be before the
// Open sweep removes it. Fresh temps are left alone: they may belong to
// a concurrent writer (another process mid-Put), whose rename would
// otherwise fail.
const DefaultStaleTempAge = time.Hour

// entrySuffix is the file suffix of committed entries:
// <digest>.curve.
const entrySuffix = ".curve"

// corruptSuffix begins the quarantine names: <digest>.corrupt, then
// .corrupt.1, .corrupt.2, ... when earlier quarantines already hold the
// base name.
const corruptSuffix = ".corrupt"

// lockFile is the flock target serializing GC sweeps across processes.
const lockFile = "store.lock"

// gcLowWater is the fraction of MaxBytes GC shrinks to, so each sweep
// buys headroom instead of running again on the very next Put.
const gcLowWater = 0.9

// ErrDisabled marks operations on a store that has degraded to a no-op
// tier (unwritable directory, disk full after GC). Callers treat it
// like a miss and derive.
var ErrDisabled = errors.New("store: disabled")

// ErrDegraded marks a Put of a degraded (partial-coverage) curve, which
// the store refuses: only exact results are ever persisted.
var ErrDegraded = errors.New("store: refusing to persist a degraded curve")

// ErrCorruptEntry marks an entry that failed verification (torn JSON,
// checksum mismatch, wrong engine or digest). Get quarantines such
// entries and reports a miss; the sentinel is exported for tests and
// log matching.
var ErrCorruptEntry = errors.New("store: corrupt entry")

// Entry is one stored derivation result: the curve plus the replayable
// response metadata (evaluated count, original wall time, per-strategy
// segments of in-process segmentation studies).
type Entry struct {
	// Kind is the derivation path the curve came from.
	Kind shard.Kind `json:"kind"`
	// Workload is the human-readable workload label (informational; the
	// digest is authoritative).
	Workload string `json:"workload,omitempty"`
	// Evaluated is the number of enumeration indices the original
	// derivation evaluated.
	Evaluated int64 `json:"evaluated"`
	// ElapsedMS is the original derivation's wall time in milliseconds,
	// replayed to clients served from the store.
	ElapsedMS int64 `json:"elapsed_ms"`
	// Curve is the derived frontier. Never nil and never degraded in a
	// valid entry.
	Curve *pareto.Curve `json:"curve"`
	// Segments are the per-strategy curves of an in-process segmentation
	// study; nil for every other kind and for sharded runs.
	Segments []workload.Segment `json:"segments,omitempty"`
}

// envelope is the on-disk schema: a header that authenticates the
// payload before anything inside it is trusted.
type envelope struct {
	// FormatVersion pins the envelope schema (the package constant).
	FormatVersion int `json:"format_version"`
	// Engine is the derivation engine revision (shard.Engine) whose
	// curves the payload holds; entries from other revisions are
	// quarantined, because their curves may legitimately differ.
	Engine string `json:"engine"`
	// Digest is the full derivation digest; it must match both the
	// requested digest and the file name, so a misplaced or renamed
	// entry can never answer for the wrong workload.
	Digest string `json:"digest"`
	// PayloadSHA256 is the hex sha256 of the exact Payload bytes below.
	PayloadSHA256 string `json:"payload_sha256"`
	// Payload is the serialized Entry.
	Payload json.RawMessage `json:"payload"`
}

// Options configures Open. Only Dir is required.
type Options struct {
	// Dir is the store directory; created if absent.
	Dir string

	// MaxBytes caps the committed entries' total size; GC removes the
	// least recently used entries past it. <= 0 means DefaultMaxBytes;
	// positive values below MinMaxBytes are clamped up to it.
	MaxBytes int64

	// FS overrides the filesystem — the fault-injection seam
	// (shard.FaultFS satisfies it). Nil means the real OS filesystem.
	FS shard.FS

	// Logf, when non-nil, receives operational log lines (quarantines,
	// GC sweeps, the one-time disable notice).
	Logf func(format string, args ...any)
}

// Store is the durable curve tier. All methods are safe for concurrent
// use, and multiple processes may share one directory.
type Store struct {
	dir      string
	maxBytes int64
	fs       shard.FS
	logf     func(format string, args ...any)

	// approxBytes tracks the committed entries' total size as this
	// process observes it: seeded by the Open scan, advanced by Put,
	// reset by each GC rescan. It only triggers GC; GC itself rescans.
	approxBytes atomic.Int64

	disabled    atomic.Bool
	disableOnce sync.Once

	// gcMu serializes GC within the process; the flock'd lock file
	// serializes it across processes.
	gcMu sync.Mutex

	hits        atomic.Int64
	misses      atomic.Int64
	writes      atomic.Int64
	writeErrors atomic.Int64
	quarantines atomic.Int64
	gcRemoved   atomic.Int64
}

// Open validates the directory, sweeps stale temp files, scans the
// committed entries, and probes writability. An error means the tier is
// unusable (missing and uncreatable directory, unwritable directory);
// callers degrade to memory-only operation.
func Open(opts Options) (*Store, error) {
	if opts.Dir == "" {
		return nil, errors.New("store: no directory")
	}
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = DefaultMaxBytes
	} else if opts.MaxBytes < MinMaxBytes {
		opts.MaxBytes = MinMaxBytes
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = shard.OS()
	}
	if err := fsys.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", opts.Dir, err)
	}
	s := &Store{
		dir:      opts.Dir,
		maxBytes: opts.MaxBytes,
		fs:       fsys,
		logf:     opts.Logf,
	}
	// Probe writability now, so a read-only directory fails Open (and
	// the caller degrades) instead of failing the first Put mid-traffic.
	probe, err := fsys.CreateTemp(s.dir, ".probe*")
	if err != nil {
		return nil, fmt.Errorf("store: directory %s is not writable: %w", s.dir, err)
	}
	probeName := probe.Name()
	if err := probe.Close(); err != nil {
		return nil, fmt.Errorf("store: directory %s probe: %w", s.dir, err)
	}
	_ = fsys.Remove(probeName)
	// Another process may be mid-Put in this directory, about to rename
	// its temp: only temps older than any live write are swept.
	swept, err := shard.SweepTemps(fsys, filepath.Join(s.dir, "*"+entrySuffix), DefaultStaleTempAge)
	if err != nil {
		s.log("store: %v", err)
	}
	for _, m := range swept {
		s.log("store: swept stale temp %s", m)
	}
	if ents, total, err := s.scan(); err != nil {
		s.log("store: scanning %s: %v", s.dir, err)
	} else {
		s.approxBytes.Store(total)
		s.log("store: opened %s: %d entries, %d bytes (cap %d)", s.dir, len(ents), total, s.maxBytes)
	}
	return s, nil
}

// Dir reports the store directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) log(format string, args ...any) {
	if s.logf != nil {
		s.logf(format, args...)
	}
}

// disable turns the tier off for the rest of the process, logging the
// reason exactly once. Reads and writes become misses/no-ops; the
// caller's memory tier keeps working untouched.
func (s *Store) disable(cause error) {
	s.disableOnce.Do(func() {
		s.disabled.Store(true)
		s.log("store: disabled (degrading to memory-only caching): %v", cause)
	})
	s.disabled.Store(true)
}

// entryPath returns the committed file name for digest.
func (s *Store) entryPath(digest string) string {
	return filepath.Join(s.dir, digest+entrySuffix)
}

// Get returns the verified entry for digest, or ok=false on any miss:
// absent, disabled, or invalid (invalid entries are quarantined first).
// A hit refreshes the entry's recency for GC.
func (s *Store) Get(digest string) (*Entry, bool) {
	if s.disabled.Load() {
		return nil, false
	}
	path := s.entryPath(digest)
	data, err := s.fs.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			s.log("store: reading %s: %v", path, err)
		}
		s.misses.Add(1)
		return nil, false
	}
	ent, err := decodeEntry(data, digest)
	if err != nil {
		s.quarantine(path, err)
		s.misses.Add(1)
		return nil, false
	}
	now := time.Now()
	_ = s.fs.Chtimes(path, now, now) // recency only; failure is harmless
	s.hits.Add(1)
	return ent, true
}

// decodeEntry turns the bytes of an entry file into a verified Entry —
// the one validating decoder every Get goes through: envelope JSON,
// format version, engine revision, digest (content address), payload
// checksum, payload JSON, then the Entry's own invariants (validate).
// Every failure wraps ErrCorruptEntry.
func decodeEntry(data []byte, digest string) (*Entry, error) {
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptEntry, err)
	}
	if env.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorruptEntry, env.FormatVersion, FormatVersion)
	}
	if env.Engine != shard.Engine {
		return nil, fmt.Errorf("%w: engine %q, want %q", ErrCorruptEntry, env.Engine, shard.Engine)
	}
	if env.Digest != digest {
		return nil, fmt.Errorf("%w: recorded digest %.12s… does not match content address %.12s…",
			ErrCorruptEntry, env.Digest, digest)
	}
	sum := sha256.Sum256(env.Payload)
	if hex.EncodeToString(sum[:]) != env.PayloadSHA256 {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorruptEntry)
	}
	var ent Entry
	if err := json.Unmarshal(env.Payload, &ent); err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrCorruptEntry, err)
	}
	if err := ent.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptEntry, err)
	}
	return &ent, nil
}

// validate checks the invariants every stored Entry holds: a known kind,
// non-negative counts, an exact (non-degraded) curve that passes the
// curve decoder's own checks (pareto.Curve.Validate), and segments that
// each carry such a curve with the recorded point count. Put refuses
// entries that fail it, so Get never has to quarantine one this process
// wrote.
func (e *Entry) validate() error {
	switch e.Kind {
	case shard.KindBound, shard.KindMultiLevel, shard.KindFusionTiled, shard.KindSegmentation:
	default:
		return fmt.Errorf("unknown kind %q", e.Kind)
	}
	if e.Evaluated < 0 || e.ElapsedMS < 0 {
		return fmt.Errorf("negative evaluated %d or elapsed_ms %d", e.Evaluated, e.ElapsedMS)
	}
	if e.Curve == nil {
		return errors.New("missing curve")
	}
	if e.Curve.Degraded {
		return errors.New("degraded curve persisted")
	}
	if err := e.Curve.Validate(); err != nil {
		return err
	}
	for i, sg := range e.Segments {
		if sg.Curve == nil || sg.Curve.Degraded {
			return fmt.Errorf("segment %d: missing or degraded curve", i)
		}
		if err := sg.Curve.Validate(); err != nil {
			return fmt.Errorf("segment %d: %w", i, err)
		}
		if sg.Points != sg.Curve.Len() {
			return fmt.Errorf("segment %d: %d points recorded, curve has %d", i, sg.Points, sg.Curve.Len())
		}
	}
	return nil
}

// quarantine renames an invalid entry aside to the first free
// <digest>.corrupt[.N] name (shard.Quarantine) so the evidence survives
// and the slot frees for a re-derived replacement. When the rename
// fails the entry is removed instead; a quarantine that can do neither
// disables the tier: leaving a known-bad entry in place would re-fail
// every Get.
func (s *Store) quarantine(path string, cause error) {
	s.quarantines.Add(1)
	qpath, err := shard.Quarantine(s.fs, path, path[:len(path)-len(entrySuffix)]+corruptSuffix)
	if err == nil {
		s.log("store: quarantined corrupt entry %s -> %s: %v", path, qpath, cause)
		return
	}
	if errors.Is(err, os.ErrNotExist) {
		return // a concurrent process already moved it
	}
	if err := s.fs.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		s.disable(fmt.Errorf("cannot quarantine or remove corrupt entry %s: %w", path, err))
		return
	}
	s.log("store: removed corrupt entry %s (quarantine rename failed): %v", path, cause)
}

// Put persists an exact derivation result under digest, atomically and
// durably. Degraded curves are refused (ErrDegraded), as are entries that
// fail the invariants Get verifies; a disabled store refuses everything
// (ErrDisabled). An ENOSPC triggers one GC-and-retry
// before the tier disables itself; an unwritable directory disables it
// immediately. Concurrent Puts of one digest are safe: both write the
// same bytes, and rename is atomic.
func (s *Store) Put(digest string, ent *Entry) error {
	if s.disabled.Load() {
		return ErrDisabled
	}
	if ent.Curve != nil && ent.Curve.Degraded {
		return ErrDegraded
	}
	if err := ent.validate(); err != nil {
		return fmt.Errorf("store: invalid entry: %w", err)
	}
	data, err := encodeEntry(digest, ent)
	if err != nil {
		return err
	}
	path := s.entryPath(digest)
	if err := shard.WriteFileAtomic(s.fs, path, data); err != nil {
		s.writeErrors.Add(1)
		if !isNoSpace(err) {
			if isUnwritable(err) {
				s.disable(err)
			}
			return fmt.Errorf("store: %w", err)
		}
		// The cap may simply be oversized for the disk: shrink and retry
		// once before giving up on the tier.
		s.gc(true)
		if shard.WriteFileAtomic(s.fs, path, data) != nil {
			s.disable(fmt.Errorf("disk full even after GC: %w", err))
			return fmt.Errorf("store: %w", err)
		}
	}
	s.writes.Add(1)
	if s.approxBytes.Add(int64(len(data))) > s.maxBytes {
		s.gc(false)
	}
	return nil
}

// encodeEntry serializes the checksummed envelope.
func encodeEntry(digest string, ent *Entry) ([]byte, error) {
	payload, err := json.Marshal(ent)
	if err != nil {
		return nil, fmt.Errorf("store: encoding entry: %w", err)
	}
	sum := sha256.Sum256(payload)
	data, err := json.Marshal(&envelope{
		FormatVersion: FormatVersion,
		Engine:        shard.Engine,
		Digest:        digest,
		PayloadSHA256: hex.EncodeToString(sum[:]),
		Payload:       payload,
	})
	if err != nil {
		return nil, fmt.Errorf("store: encoding envelope: %w", err)
	}
	return append(data, '\n'), nil
}

// scanEntry is one committed entry's GC bookkeeping.
type scanEntry struct {
	path  string
	size  int64
	mtime time.Time
}

// scan lists the committed entries with their sizes and recency times.
func (s *Store) scan() ([]scanEntry, int64, error) {
	matches, err := s.fs.Glob(filepath.Join(s.dir, "*"+entrySuffix))
	if err != nil {
		return nil, 0, err
	}
	ents := make([]scanEntry, 0, len(matches))
	var total int64
	for _, m := range matches {
		fi, err := s.fs.Stat(m)
		if err != nil {
			continue // raced with a concurrent GC or quarantine
		}
		ents = append(ents, scanEntry{path: m, size: fi.Size(), mtime: fi.ModTime()})
		total += fi.Size()
	}
	return ents, total, nil
}

// gc shrinks the directory back under the byte cap by removing the
// least recently used entries, down to the low-water mark. force also
// sweeps when under the cap is already true (the ENOSPC retry path,
// where the disk — not the cap — is the limit). Cross-process GC races
// are prevented by the lock file; if another process holds it, this
// sweep is skipped (that process is already shrinking the directory).
func (s *Store) gc(force bool) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()
	unlock, err := s.fs.Lock(filepath.Join(s.dir, lockFile))
	if err != nil {
		// GC is an optimization, never a correctness requirement: a lock
		// another process holds means its sweep is already shrinking the
		// directory, and an unopenable lock file skips the sweep. The
		// kernel drops a flock with its holder, so a crashed GC never
		// wedges the directory.
		if !errors.Is(err, syscall.EWOULDBLOCK) {
			s.log("store: gc lock: %v", err)
		}
		return
	}
	defer unlock()
	ents, total, err := s.scan()
	if err != nil {
		s.log("store: gc scan: %v", err)
		return
	}
	s.approxBytes.Store(total)
	target := int64(gcLowWater * float64(s.maxBytes))
	if force && total <= target {
		// ENOSPC under the cap: free half of what is there.
		target = total / 2
	}
	if total <= target && !force {
		return
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].mtime.Before(ents[j].mtime) })
	removed := 0
	for _, e := range ents {
		if total <= target {
			break
		}
		if err := s.fs.Remove(e.path); err != nil {
			if !errors.Is(err, os.ErrNotExist) {
				s.log("store: gc removing %s: %v", e.path, err)
				continue
			}
		}
		total -= e.size
		removed++
	}
	if removed > 0 {
		s.gcRemoved.Add(int64(removed))
		s.approxBytes.Store(total)
		s.log("store: gc removed %d entries, %d bytes remain (cap %d)", removed, total, s.maxBytes)
	}
}

// GC runs a garbage-collection sweep immediately (normally Put triggers
// it past the cap). Exposed for warmers that want a bounded directory
// before exiting.
func (s *Store) GC() { s.gc(false) }

// Stats is the store's observable state, shaped for the /stats
// endpoint.
type Stats struct {
	// Hits, Misses, Writes, WriteErrors, Quarantines and GCRemoved are
	// cumulative since Open, for this process only (a sharing process
	// keeps its own counts).
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	Quarantines int64 `json:"quarantines"`
	GCRemoved   int64 `json:"gc_removed"`
	// Entries and Bytes are a live scan of the directory, so they
	// reflect every sharing process's writes.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// MaxBytes is the effective GC cap.
	MaxBytes int64 `json:"max_bytes"`
	// Disabled reports the tier degraded to a no-op.
	Disabled bool `json:"disabled"`
}

// StatsSnapshot assembles the current Stats (including a live directory
// scan; skipped when disabled).
func (s *Store) StatsSnapshot() Stats {
	st := Stats{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		WriteErrors: s.writeErrors.Load(),
		Quarantines: s.quarantines.Load(),
		GCRemoved:   s.gcRemoved.Load(),
		MaxBytes:    s.maxBytes,
		Disabled:    s.disabled.Load(),
	}
	if !st.Disabled {
		if ents, total, err := s.scan(); err == nil {
			st.Entries = len(ents)
			st.Bytes = total
		}
	}
	return st
}

// isNoSpace reports a disk-full failure (ENOSPC, or EDQUOT where quotas
// apply) — the class Put answers with a GC-and-retry before disabling.
func isNoSpace(err error) bool {
	return errors.Is(err, syscall.ENOSPC) || errors.Is(err, syscall.EDQUOT)
}

// isUnwritable reports a permission-class failure (EACCES, EPERM,
// EROFS) — the directory will not start accepting writes on its own, so
// Put disables the tier immediately instead of failing every request.
func isUnwritable(err error) bool {
	return errors.Is(err, syscall.EACCES) || errors.Is(err, syscall.EPERM) ||
		errors.Is(err, syscall.EROFS)
}
