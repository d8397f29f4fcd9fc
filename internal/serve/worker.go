package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/shard"
	"repro/internal/traverse"
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
		writeError(w, http.StatusServiceUnavailable, "draining",
			"worker is draining; dispatch the shard to another worker", time.Second)
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req ShardRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error(), 0)
		return
	}
	if req.MaxFormatVersion != 0 && req.MaxFormatVersion < shard.FormatVersion {
		writeError(w, http.StatusBadRequest, "unsupported_version",
			fmt.Sprintf("coordinator reads partial formats up to %d; this worker writes format %d",
				req.MaxFormatVersion, shard.FormatVersion), 0)
		return
	}
	plan := shard.Plan{Index: req.ShardIndex, Count: req.ShardCount}
	if err := plan.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error(), 0)
		return
	}
	if len(req.Spec) == 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", "missing workload spec", 0)
		return
	}
	// Decode rejects unknown derivation kinds with an error naming the
	// known ones, so a coordinator from a newer schema gets a structured
	// 400, never a 500 out of the panic-containment path. Pinned by
	// TestWorkerUnknownKindIs400.
	spec, err := workload.Decode(req.Spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_workload", err.Error(), 0)
		return
	}
	job, err := spec.Compile(plan, workload.Exec{Workers: s.cfg.Workers})
	if err != nil {
		// Includes workload.ErrUnmaterialized: the wire contract requires
		// materialized specs, so an unmaterialized one is a client error.
		writeError(w, http.StatusBadRequest, "invalid_workload", err.Error(), 0)
		return
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS > 0 {
		timeout = time.Duration(req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	// Server shutdown must reach a running shard too: Close (and a drain
	// deadline) cancel the base context, which cancels this run at
	// traversal-chunk granularity with a final checkpoint flushed.
	stopBase := context.AfterFunc(s.base, cancel)
	defer stopBase()

	// Register with the drain barrier exactly like a curve flight: once
	// Drain's lock cycles, no new shard run can start, and Drain waits
	// for the ones already running.
	s.flightMu.Lock()
	if s.draining.Load() {
		s.flightMu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "draining",
			"worker is draining; dispatch the shard to another worker", time.Second)
		return
	}
	s.wg.Add(1)
	s.flightMu.Unlock()
	defer s.wg.Done()

	if err := s.adm.acquire(ctx); err != nil {
		s.writeShardError(w, ctx, timeout, err)
		return
	}
	defer s.adm.release()

	stride := s.cfg.CheckpointEvery
	if req.CheckpointEvery > 0 {
		stride = req.CheckpointEvery
	}
	data, err := s.runWorkerShard(ctx, job, plan, stride)
	if err != nil {
		s.writeShardError(w, ctx, timeout, err)
		return
	}
	s.stats.workerShards.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
}

// writeShardError maps a worker shard failure onto the error taxonomy.
func (s *Server) writeShardError(w http.ResponseWriter, ctx context.Context, timeout time.Duration, err error) {
	var pe *traverse.PanicError
	switch {
	case errors.Is(err, errSaturated):
		s.stats.saturated.Add(1)
		writeError(w, http.StatusTooManyRequests, "saturated",
			"worker shard capacity and queue are full; dispatch elsewhere or retry later", s.cfg.QueueWait)
	case errors.As(err, &pe):
		writeError(w, http.StatusInternalServerError, "panic",
			"shard derivation panicked; see worker logs", 0)
	case s.base.Err() != nil:
		writeError(w, http.StatusServiceUnavailable, "draining",
			"worker shut down mid-shard; progress is checkpointed on this worker", time.Second)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.stats.deadlines.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline",
			fmt.Sprintf("shard derivation exceeded the request deadline (%s); progress is checkpointed on this worker", timeout), 0)
	case ctx.Err() != nil:
		// Coordinator hung up: nobody is listening; write nothing. The
		// checkpoint survives for the retry.
	default:
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
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
// same path are serialized (holdShard); a corrupt or foreign
// checkpoint left by an earlier life of this worker is quarantined to
// the first free "<path>.corrupt[.N]" (shard.Quarantine) and the slice
// re-derived once, matching the scheduler's policy. On success the
// checkpoint is removed — the coordinator owns the durable
// copy from here on; a response the coordinator never received is simply
// re-dispatched and re-derived. The digest directory goes with the last
// live shard of its derivation (holdShard).
func (s *Server) runWorkerShard(ctx context.Context, job shard.Job, plan shard.Plan, stride int64) (data []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			rec := traverse.Recovered(r)
			var pe *traverse.PanicError
			if errors.As(rec, &pe) {
				s.stats.panics.Add(1)
				s.logf("serve: recovered panic in worker shard %s of %s: %v\n%s", plan, job.Workload, pe.Value, pe.Stack)
			}
			data, err = nil, rec
		}
	}()
	path := s.workerShardPath(&job, plan)
	release, err := s.holdShard(path)
	if err != nil {
		return nil, err
	}
	defer release()
	start := time.Now()
	run := func() (shard.RunStats, error) {
		_, rs, err := shard.Run(ctx, job, shard.RunOptions{
			Path:            path,
			CheckpointEvery: stride,
			OnCheckpoint:    s.cfg.OnCheckpoint,
			FS:              s.cfg.fs,
		})
		return rs, err
	}
	rs, rerr := run()
	if errors.Is(rerr, shard.ErrCorruptPartial) || errors.Is(rerr, shard.ErrForeignPartial) {
		qpath, qerr := shard.Quarantine(s.cfg.fs, path, path+".corrupt")
		if qerr != nil {
			return nil, fmt.Errorf("serve: cannot quarantine corrupt worker checkpoint: %w (cause: %v)", qerr, rerr)
		}
		s.logf("serve: worker shard %s: quarantined corrupt checkpoint to %s, re-deriving", plan, qpath)
		rs, rerr = run()
	}
	if rerr != nil {
		return nil, rerr
	}
	s.stats.evaluated.Add(rs.Evaluated)
	s.stats.deriveNanos.Add(int64(time.Since(start)))
	data, err = s.cfg.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if rmErr := s.cfg.fs.Remove(path); rmErr != nil {
		s.logf("serve: cleaning worker checkpoint %s: %v", path, rmErr)
	}
	return data, nil
}
