package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/shard"
	"repro/internal/workload"
)

// ShardRequest is the body of POST /v1/shard: the fleet wire contract,
// defined once in internal/fleet and aliased here so the worker endpoint
// and its clients share one schema (docs/fleet-protocol.md).
type ShardRequest = fleet.ShardRequest

// handleShard is POST /v1/shard: the worker half of the derivation
// fleet. It compiles the embedded spec for the requested plan slot, runs
// the slice as a checkpointed shard.Run under the worker spool (so a
// retried request resumes rather than restarts) in a flight keyed by the
// checkpoint path (so an overlapping identical dispatch shares the run),
// and streams back the partial-frontier file bytes. The coordinator
// validates digests and completeness on its side; the worker's job is
// only to be correct, resumable, and honest about failure.
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
	stride := s.cfg.CheckpointEvery
	if req.CheckpointEvery > 0 {
		stride = req.CheckpointEvery
	}
	path := s.workerShardPath(&job, job.Plan)
	res, err := s.fly(ctx, s.shards, path, s.leadShard(job, path, stride))
	if err != nil {
		s.fail(w, ctx, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(res.fields)
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

// workerShardPath places one shard's worker-side checkpoint file
// directly in the worker spool, named by the derivation-digest prefix and
// the fleet spool's shard file name, so retried dispatches of the same
// shard resume the same file and distinct derivations never collide.
func (s *Server) workerShardPath(job *shard.Job, plan shard.Plan) string {
	digest := shard.Digest(string(job.Kind) + "|" + job.WorkloadDigest + "|" + job.OptionsDigest)
	return filepath.Join(s.cfg.WorkerDir, fmt.Sprintf("%.16s-%s", digest, fleet.ShardPath("", plan.Index, plan.Count)))
}

// leadShard returns the leader of one dispatched shard's flight: the
// guarded run of the slice to completion at path, publishing the
// partial-frontier file bytes as the flight's result fields. The flight
// context is a child of the server lifetime, so Close (and a drain
// deadline) cancel the run at traversal-chunk granularity with a final
// checkpoint flushed. The slot is claimed first (shard.Claim), so a
// corrupt or foreign checkpoint left by an earlier life of this worker is
// set aside and the slice re-derived, matching the scheduler's policy. On
// success the checkpoint is removed — the coordinator owns the durable
// copy from here on; a response the coordinator never received is simply
// re-dispatched and re-derived.
func (s *Server) leadShard(job shard.Job, path string, stride int64) func(context.Context) (result, error) {
	return func(ctx context.Context) (res result, err error) {
		err = s.guard(ctx, fmt.Sprintf("worker shard %s of %s", job.Plan, job.Workload), nil, func() error {
			start := time.Now()
			if err := s.cfg.fs.MkdirAll(s.cfg.WorkerDir); err != nil {
				return err
			}
			want := job.Manifest()
			if _, qpath, err := shard.Claim(s.cfg.fs, path, &want); err != nil {
				return err
			} else if qpath != "" {
				s.logf("serve: worker shard %s: quarantined unusable checkpoint to %s, re-deriving", job.Plan, qpath)
			}
			_, rs, err := shard.Run(ctx, job, shard.RunOptions{
				Path:            path,
				CheckpointEvery: stride,
				OnCheckpoint:    s.cfg.OnCheckpoint,
				FS:              s.cfg.fs,
			})
			if err != nil {
				return err
			}
			s.stats.evaluated.Add(rs.Evaluated)
			s.stats.deriveNanos.Add(int64(time.Since(start)))
			if res.fields, err = s.cfg.fs.ReadFile(path); err != nil {
				return err
			}
			if rmErr := s.cfg.fs.Remove(path); rmErr != nil {
				s.logf("serve: cleaning worker checkpoint %s: %v", path, rmErr)
			}
			s.stats.workerShards.Add(1)
			return nil
		})
		return res, err
	}
}
