package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"repro/internal/shard"
	"repro/internal/workload"
)

// spoolSpecFile is the self-description every spooled sharded derivation
// writes into its spool subdirectory. It carries the materialized
// workload Spec plus the shard width, so a later server process can
// rebuild the derivation — identity, shard jobs, and all — from the
// directory alone, without re-receiving the original HTTP request.
const spoolSpecFile = "spec.json"

// spoolSpec is the on-disk schema of spec.json.
type spoolSpec struct {
	// Digest is the full derivation digest; the spool subdirectory name
	// is its first 16 characters. Resume cross-checks both against the
	// digest recomputed from Spec, so a tampered or misplaced spool is
	// skipped instead of merged into the wrong cache entry.
	Digest string `json:"digest"`
	// Kind echoes the derivation kind for human inspection.
	Kind string `json:"kind"`
	// Shards is the fleet width the derivation was started with; resume
	// must reuse it so the partial frontiers line up.
	Shards int `json:"shards"`
	// Spec is the canonical encoding of the materialized workload Spec.
	Spec json.RawMessage `json:"spec"`
}

// writeSpoolSpec persists the derivation's self-description into dir
// over fsys with shard.WriteFileAtomic, so a crash mid-write —
// even a host crash — leaves either no spec.json or a complete one,
// never a torn file.
func writeSpoolSpec(fsys shard.FS, dir string, d *derivation, shards int) error {
	raw, err := d.mspec.Encode()
	if err != nil {
		return err
	}
	data, err := json.Marshal(&spoolSpec{
		Digest: d.digest,
		Kind:   string(d.kind),
		Shards: shards,
		Spec:   raw,
	})
	if err != nil {
		return err
	}
	return shard.WriteFileAtomic(fsys, filepath.Join(dir, spoolSpecFile), data)
}

// readSpoolSpec loads and sanity-checks dir's spec.json over fsys.
func readSpoolSpec(fsys shard.FS, dir string) (*spoolSpec, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, spoolSpecFile))
	if err != nil {
		return nil, err
	}
	var env spoolSpec
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", spoolSpecFile, err)
	}
	if env.Digest == "" || env.Shards < 2 || len(env.Spec) == 0 {
		return nil, fmt.Errorf("%s is incomplete (digest=%q shards=%d spec=%d bytes)",
			spoolSpecFile, env.Digest, env.Shards, len(env.Spec))
	}
	return &env, nil
}

// ResumeOrphans scans the spool directory for derivations a previous
// server process left behind and completes them: each subdirectory with
// a spec.json is decoded back into a derivation, its checkpointed shard
// fleet is resumed at the recorded width, and the finished curve enters
// the result cache — so the next identical request is a cache hit, even
// though this process never saw the original request. Subdirectories
// without spec.json (pre-spec spools) and spools whose recorded identity
// does not match their recomputed one are logged and kept untouched; a
// client re-issuing the request still resumes them through the normal
// spooled path.
//
// Call it once at startup, before serving traffic: it first creates the
// spool and worker directories, and an error creating either means the
// server should not start. It returns the number of derivations resumed
// to completion. Per-spool failures are logged and skipped (the spool
// survives for a later attempt); only a failure to create or scan the
// directories themselves is returned as an error.
func (s *Server) ResumeOrphans(ctx context.Context) (int, error) {
	for _, root := range []string{s.cfg.SpoolDir, s.cfg.WorkerDir} {
		if root == "" {
			continue
		}
		if err := s.cfg.fs.MkdirAll(root); err != nil {
			return 0, fmt.Errorf("serve: creating %s: %w", root, err)
		}
	}
	if s.cfg.SpoolDir == "" {
		return 0, nil
	}
	// A missing spool directory globs to nothing: no orphans.
	dirs, err := s.cfg.fs.Glob(filepath.Join(s.cfg.SpoolDir, "*"))
	if err != nil {
		return 0, err
	}
	resumed := 0
	for _, dir := range dirs {
		if fi, err := s.cfg.fs.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		if s.cfg.WorkerDir != "" && dir == filepath.Clean(s.cfg.WorkerDir) {
			// The worker endpoint's own checkpoint tree (a sibling inside
			// the spool when orojenesisd runs with -worker): its shards
			// belong to remote coordinators, not this server's cache.
			continue
		}
		env, err := readSpoolSpec(s.cfg.fs, dir)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				s.logf("serve: spool %s has no %s; waiting for a client to re-request it", dir, spoolSpecFile)
			} else {
				s.logf("serve: spool %s: %v", dir, err)
			}
			continue
		}
		spec, err := workload.Decode(env.Spec)
		if err != nil {
			s.logf("serve: spool %s: %v", dir, err)
			continue
		}
		d, err := derivationFromSpec(spec, s.cfg.Workers)
		if err != nil {
			s.logf("serve: spool %s: rebuilding derivation: %v", dir, err)
			continue
		}
		if d.digest != env.Digest || fmt.Sprintf("%.16s", d.digest) != filepath.Base(dir) {
			s.logf("serve: spool %s: recorded digest %.16s does not match spec digest %.16s; skipping",
				dir, env.Digest, d.digest)
			continue
		}
		// Publish through a flight exactly like a request's derivation:
		// the result is cached, persisted and counted in one place.
		// noCache keeps the spool resume (and its cleanup) even when the
		// store already holds the curve; resume never allows a degraded
		// merge, so an orphan that cannot complete exactly stays in the
		// spool.
		if _, err := s.fly(ctx, s.mem, d.key, s.leadCurve(d, env.Shards, false, true)); err != nil {
			s.logf("serve: resuming spool %s (%s): %v", dir, d.label, err)
			continue
		}
		s.logf("serve: resumed orphaned derivation %s (%.12s) from spool", d.label, d.digest)
		resumed++
	}
	return resumed, nil
}
