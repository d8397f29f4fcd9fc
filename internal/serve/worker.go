package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/shard"
	"repro/internal/workload"
)

// ShardRequest is the body of POST /v1/shard: the fleet wire contract,
// defined once in internal/fleet and aliased here so the worker endpoint
// and its clients share one schema (docs/fleet-protocol.md).
type ShardRequest = fleet.ShardRequest

// wlock is one per-checkpoint-path mutex slot with a reference count, so
// the table can shed entries when the last holder leaves.
type wlock struct {
	mu   sync.Mutex
	refs int
}

// holdShard pins one worker shard run on its checkpoint path. Runs on
// one path are serialized: a retry of a shard the coordinator gave up on
// may arrive while the first attempt is still deriving, and two
// shard.Run calls on one path would interleave checkpoint flushes (each
// valid, but the slower writer can roll the high-water mark backwards),
// so the second caller blocks, then resumes from whatever the first
// flushed. The path's digest directory is created here and removed by
// the release of the last live run of its derivation — only then, so a
// finishing shard never deletes it under a sibling that has created it
// but not yet checkpointed into it. Removal is best-effort: a directory
// still holding a failed shard's checkpoint is not empty and stays for
// the retry.
func (s *Server) holdShard(path string) (func(), error) {
	dir := filepath.Dir(path)
	s.workerMu.Lock()
	if s.workerLocks == nil {
		s.workerLocks = make(map[string]*wlock)
		s.workerDirs = make(map[string]int)
	}
	e := s.workerLocks[path]
	if e == nil {
		e = &wlock{}
		s.workerLocks[path] = e
	}
	e.refs++
	s.workerDirs[dir]++
	s.workerMu.Unlock()
	drop := func() {
		s.workerMu.Lock()
		defer s.workerMu.Unlock()
		if e.refs--; e.refs == 0 {
			delete(s.workerLocks, path)
		}
		if s.workerDirs[dir]--; s.workerDirs[dir] == 0 {
			delete(s.workerDirs, dir)
			_ = s.cfg.fs.Remove(dir)
		}
	}
	if err := s.cfg.fs.MkdirAll(dir); err != nil {
		drop()
		return nil, err
	}
	e.mu.Lock()
	return func() {
		e.mu.Unlock()
		drop()
	}, nil
}

// handleShard is POST /v1/shard: the worker half of the derivation
// fleet. It compiles the embedded spec for the requested plan slot, runs
// the slice as a checkpointed shard.Run under the worker spool (so a
// retried request resumes rather than restarts), and streams back the
// partial-frontier file bytes. The coordinator validates digests and
// completeness on its side; the worker's job is only to be correct,
// resumable, and honest about failure.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	s.stats.workerRequests.Add(1)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST", 0)
		return
	}
	if s.cfg.WorkerDir == "" {
		writeError(w, http.StatusNotFound, "worker_disabled",
			"this server does not execute fleet shards (start it with a worker directory)", 0)
		return
	}
	if s.draining.Load() {
		s.fail(w, r.Context(), errDraining)
		return
	}

	var req ShardRequest
	if !decodeRequest(w, r, &req) {
		return
	}
	job, code, err := s.shardJob(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, code, err.Error(), 0)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	// Server shutdown must reach a running shard too: Close (and a drain
	// deadline) cancel the base context, which cancels this run at
	// traversal-chunk granularity with a final checkpoint flushed.
	stopBase := context.AfterFunc(s.base, cancel)
	defer stopBase()

	stride := s.cfg.CheckpointEvery
	if req.CheckpointEvery > 0 {
		stride = req.CheckpointEvery
	}
	var data []byte
	err = s.guard(ctx, fmt.Sprintf("worker shard %s of %s", job.Plan, job.Workload), nil, func() (err error) {
		data, err = s.runWorkerShard(ctx, job, stride)
		return err
	})
	if err != nil {
		s.fail(w, ctx, err)
		return
	}
	s.stats.workerShards.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// shardJob checks a decoded /v1/shard request and compiles its job: the
// format version, the plan slot, the embedded spec, then the job. A
// rejection comes with its 400 error code — unsupported_version,
// invalid_request or invalid_workload.
func (s *Server) shardJob(req *ShardRequest) (shard.Job, string, error) {
	if req.MaxFormatVersion != 0 && req.MaxFormatVersion < shard.FormatVersion {
		return shard.Job{}, "unsupported_version", fmt.Errorf("coordinator reads partial formats up to %d; this worker writes format %d",
			req.MaxFormatVersion, shard.FormatVersion)
	}
	plan := shard.Plan{Index: req.ShardIndex, Count: req.ShardCount}
	if err := plan.Validate(); err != nil {
		return shard.Job{}, "invalid_request", err
	}
	if len(req.Spec) == 0 {
		return shard.Job{}, "invalid_request", errors.New("missing workload spec")
	}
	// Decode rejects unknown derivation kinds with an error naming the
	// known ones, so a coordinator from a newer schema gets a structured
	// 400, never a 500 out of the panic-containment path. Pinned by
	// TestWorkerUnknownKindIs400.
	spec, err := workload.Decode(req.Spec)
	if err != nil {
		return shard.Job{}, "invalid_workload", err
	}
	// Compile's errors include workload.ErrUnmaterialized: the wire
	// contract requires materialized specs, so an unmaterialized one is a
	// client error.
	job, err := spec.Compile(plan, workload.Exec{Workers: s.cfg.Workers})
	if err != nil {
		return shard.Job{}, "invalid_workload", err
	}
	return job, "", nil
}

// workerShardPath places one shard's worker-side checkpoint file: the
// fleet spool layout under a derivation-digest subdirectory of the worker
// spool, so retried dispatches of the same shard resume the same file
// and distinct derivations never collide.
func (s *Server) workerShardPath(job *shard.Job, plan shard.Plan) string {
	digest := shard.Digest(string(job.Kind) + "|" + job.WorkloadDigest + "|" + job.OptionsDigest)
	dir := filepath.Join(s.cfg.WorkerDir, fmt.Sprintf("%.16s", digest))
	return fleet.ShardPath(dir, plan.Index, plan.Count)
}

// runWorkerShard executes one dispatched shard to completion under the
// worker spool and returns the partial-frontier file bytes. Runs on the
// same path are serialized (holdShard); the slot is claimed first
// (shard.Claim), so a corrupt or foreign checkpoint left by an earlier
// life of this worker is set aside and the slice re-derived, matching
// the scheduler's policy. On success the checkpoint is removed — the
// coordinator owns the durable copy from here on; a response the
// coordinator never received is simply re-dispatched and re-derived. The digest directory goes with the last
// live shard of its derivation (holdShard).
func (s *Server) runWorkerShard(ctx context.Context, job shard.Job, stride int64) ([]byte, error) {
	plan := job.Plan
	path := s.workerShardPath(&job, plan)
	release, err := s.holdShard(path)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	want := job.Manifest()
	if _, qpath, err := shard.Claim(s.cfg.fs, path, &want); err != nil {
		return nil, err
	} else if qpath != "" {
		s.logf("serve: worker shard %s: quarantined unusable checkpoint to %s, re-deriving", plan, qpath)
	}
	_, rs, err := shard.Run(ctx, job, shard.RunOptions{
		Path:            path,
		CheckpointEvery: stride,
		OnCheckpoint:    s.cfg.OnCheckpoint,
		FS:              s.cfg.fs,
	})
	if err != nil {
		return nil, err
	}
	s.stats.evaluated.Add(rs.Evaluated)
	s.stats.deriveNanos.Add(int64(time.Since(start)))
	data, err := s.cfg.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if rmErr := s.cfg.fs.Remove(path); rmErr != nil {
		s.logf("serve: cleaning worker checkpoint %s: %v", path, rmErr)
	}
	return data, nil
}
