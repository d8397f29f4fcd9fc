package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"time"

	"repro/internal/pareto"
)

// defaultBlocksPerShard sets the automatic checkpoint granularity: a shard
// flushes its partial frontier about this many times over its slice, so a
// kill loses at most ~1/defaultBlocksPerShard of the shard's work.
const defaultBlocksPerShard = 32

// DeriveFunc derives the partial frontier over the global enumeration
// indices [lo, hi) of a flat traversal space, returning the annotated
// curve and the number of points evaluated. The kinds table in
// internal/workload adapts bound.DeriveRange, multilevel.DeriveRange,
// fusion.TiledFusionRange and the segmentation sweep to it; the hook
// must be deterministic per index, since a resumed shard may
// re-derive the tail of a partially flushed block (idempotent under
// Pareto insertion, but only for deterministic evaluation). Cancelling
// ctx must abort the derivation promptly and return the context's error —
// the traversal engine's FrontierRange provides exactly this.
type DeriveFunc func(ctx context.Context, lo, hi int64) (*pareto.Curve, int64, error)

// Job describes one shard's share of a derivation: the identity fields
// stamped into the manifest plus the range-derivation hook.
type Job struct {
	Kind     Kind
	Workload string // human-readable label for the manifest

	// WorkloadDigest and OptionsDigest identify the derivation (see
	// Digest); all shards of one plan must be constructed with identical
	// values or the merge will refuse them.
	WorkloadDigest string
	OptionsDigest  string

	// Items is the full flat index-space size (bound.Space,
	// fusion.TiledFusionSpace, ...); Plan selects this shard's slice.
	Items int64
	Plan  Plan

	// Spec, when non-empty, is the canonically encoded workload spec
	// (internal/workload.Encode) this job was compiled from. Run persists
	// it in every checkpoint's manifest so the partial frontier alone can
	// rebuild the job in another process. Purely informational for this
	// package: identity stays with the digests.
	Spec json.RawMessage

	Derive DeriveFunc
}

// Manifest is the header a fresh run of job stamps into its first
// checkpoint: the job's identity at the current FormatVersion and
// Engine, its plan slice, and nothing completed yet. Every partial
// frontier of this shard — a resumed checkpoint, a remote worker's
// response — must be CompatibleWith it.
func (job *Job) Manifest() Manifest {
	lo, hi := job.Plan.Slice(job.Items)
	return Manifest{
		FormatVersion:    FormatVersion,
		Engine:           Engine,
		Kind:             job.Kind,
		Workload:         job.Workload,
		WorkloadDigest:   job.WorkloadDigest,
		OptionsDigest:    job.OptionsDigest,
		ShardIndex:       job.Plan.Index,
		ShardCount:       job.Plan.Count,
		Items:            job.Items,
		RangeLo:          lo,
		RangeHi:          hi,
		CompletedThrough: lo,
		Spec:             job.Spec,
	}
}

// RunOptions tunes a shard run.
type RunOptions struct {
	// Path is the partial-frontier file: checkpoint target while running,
	// resume source when it already exists, final artifact on completion.
	Path string

	// CheckpointEvery is the number of enumeration indices derived
	// between flushes. <= 0 picks ~1/32 of the shard's slice.
	CheckpointEvery int64

	// OnCheckpoint, when non-nil, observes the manifest after every
	// successful flush — progress reporting for the CLIs.
	OnCheckpoint func(Manifest)

	// FS overrides the filesystem the checkpoint path uses. Nil means
	// the real OS filesystem; tests inject a FaultFS here.
	FS FS
}

// RunStats reports what a shard run actually did.
type RunStats struct {
	Evaluated   int64         // points evaluated this run (excludes resumed work)
	Blocks      int           // checkpoint blocks derived this run
	Resumed     bool          // whether an existing partial was continued
	ResumedFrom int64         // global index the run started at
	SweptTemps  int           // stale temp files removed on startup
	Elapsed     time.Duration // wall-clock time of this run
}

// Run executes one shard: it derives the job's slice in checkpoint
// blocks, flushing the accumulated partial frontier to opts.Path after
// each block, and returns the final partial. If opts.Path already holds a
// partial of the same derivation and shard, the run resumes at its
// completed-through mark — the restart path for a killed shard; a partial
// of a different derivation is an error, never silently overwritten. A
// legacy format-version-1 checkpoint resumes like any other and is
// upgraded in place: the first flush rewrites it at the current
// FormatVersion with the job's Spec embedded.
// Stale temp files a killed predecessor left next to opts.Path are swept
// on startup.
//
// Cancelling ctx stops the run within about one traversal worker chunk —
// inside a checkpoint block, not just between blocks — flushes a final
// checkpoint at the last completed block boundary, and returns the
// context error together with the resumable partial. Every error return
// wraps either a context error, ErrCorruptPartial, ErrForeignPartial, or
// describes an I/O failure whose on-disk state is still the last
// successfully flushed checkpoint; none leaves a corrupt artifact at
// opts.Path.
func Run(ctx context.Context, job Job, opts RunOptions) (*Partial, RunStats, error) {
	start := time.Now()
	var stats RunStats
	elapse := func() { stats.Elapsed = time.Since(start) }
	if err := job.Plan.Validate(); err != nil {
		return nil, stats, err
	}
	if job.Derive == nil {
		return nil, stats, fmt.Errorf("shard: job has no derive hook")
	}
	if opts.Path == "" {
		return nil, stats, fmt.Errorf("shard: no partial-frontier path")
	}
	fsys := orOS(opts.FS)
	// The run owns its slot (under the scheduler's or the worker's
	// lock), so every temp beside it is a dead predecessor's.
	if swept, err := SweepTemps(fsys, opts.Path, 0); err == nil {
		stats.SweptTemps = len(swept)
	}
	m := job.Manifest()
	lo, hi := m.RangeLo, m.RangeHi
	if err := m.Validate(); err != nil {
		return nil, stats, err
	}

	var acc *pareto.Curve
	prev, err := ReadPartial(fsys, opts.Path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Fresh start: no checkpoint yet.
	case err != nil:
		// An unreadable checkpoint is evidence of a problem (corruption,
		// wrong file); overwriting it would destroy that evidence. The
		// scheduler quarantines it (rename to *.corrupt) and re-derives.
		if !errors.Is(err, ErrCorruptPartial) {
			err = fmt.Errorf("%w: %w", ErrCorruptPartial, err)
		}
		return nil, stats, fmt.Errorf("shard: %s exists but is not a readable partial; refusing to overwrite: %w", opts.Path, err)
	default:
		if cerr := prev.Manifest.CompatibleWith(&m); cerr != nil {
			return nil, stats, fmt.Errorf("shard: %s holds a different derivation (%v); refusing to resume or overwrite: %w",
				opts.Path, cerr, ErrForeignPartial)
		}
		if prev.Manifest.ShardIndex != m.ShardIndex {
			return nil, stats, fmt.Errorf("shard: %s holds shard %d/%d, this run is %s; refusing to resume or overwrite: %w",
				opts.Path, prev.Manifest.ShardIndex+1, prev.Manifest.ShardCount, job.Plan, ErrForeignPartial)
		}
		m.CompletedThrough = prev.Manifest.CompletedThrough
		acc = prev.Curve
		stats.Resumed = true
	}
	stats.ResumedFrom = m.CompletedThrough

	every := opts.CheckpointEvery
	if every <= 0 {
		every = (hi - lo + defaultBlocksPerShard - 1) / defaultBlocksPerShard
		if every < 1 {
			every = 1
		}
	}

	// flush persists the accumulated state at the current block boundary.
	flush := func() error {
		return writePartial(fsys, opts.Path, &Partial{Manifest: m, Curve: acc})
	}

	for m.CompletedThrough < hi {
		if err := ctx.Err(); err != nil {
			// Interrupted between blocks (e.g. SIGINT/SIGTERM through
			// signal.NotifyContext): flush a final checkpoint so the state
			// on disk is current even if an earlier flush was skipped,
			// then surrender with the resumable partial.
			if acc != nil {
				if ferr := flush(); ferr != nil {
					elapse()
					return nil, stats, ferr
				}
			}
			elapse()
			return &Partial{Manifest: m, Curve: acc}, stats, err
		}
		bhi := m.CompletedThrough + every
		if bhi > hi {
			bhi = hi
		}
		blk, n, err := job.Derive(ctx, m.CompletedThrough, bhi)
		if err != nil {
			elapse()
			if ctx.Err() != nil && errors.Is(err, ctx.Err()) {
				// Cancelled inside the block: the last flushed checkpoint
				// (at m.CompletedThrough) is intact and resumable; the
				// partial block's work is discarded by design, since a
				// curve over an unknown index subset cannot be committed.
				return &Partial{Manifest: m, Curve: acc}, stats, err
			}
			return nil, stats, fmt.Errorf("shard: deriving [%d, %d): %w", m.CompletedThrough, bhi, err)
		}
		merged := pareto.Union(acc, blk)
		merged.AlgoMinBytes = blk.AlgoMinBytes
		merged.TotalOperandBytes = blk.TotalOperandBytes
		acc = merged
		m.CompletedThrough = bhi
		stats.Evaluated += n
		stats.Blocks++
		if err := flush(); err != nil {
			elapse()
			return nil, stats, err
		}
		if opts.OnCheckpoint != nil {
			opts.OnCheckpoint(m)
		}
	}

	if acc == nil {
		// Empty slice (more shards than items) or an already complete
		// resume of an empty shard: derive the empty range so the curve
		// still carries the workload annotations, then persist.
		blk, _, err := job.Derive(ctx, lo, lo)
		if err != nil {
			elapse()
			return nil, stats, fmt.Errorf("shard: deriving empty slice: %w", err)
		}
		acc = blk
		if err := flush(); err != nil {
			elapse()
			return nil, stats, err
		}
	}
	elapse()
	return &Partial{Manifest: m, Curve: acc}, stats, nil
}
