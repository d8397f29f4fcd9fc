package workload

import (
	"errors"
	"fmt"

	"repro/internal/shard"
)

// ErrNoSpec marks a manifest that carries no embedded Spec — a legacy
// format-version-1 partial. Such shards still merge when complete, but
// only the process that built the job can finish an incomplete one.
var ErrNoSpec = errors.New("workload: manifest carries no spec (legacy format); the job cannot be rebuilt from the artifact alone")

// JobFromManifest rebuilds a shard job from a partial-frontier manifest
// alone: it decodes the embedded Spec, compiles it for the manifest's
// plan slot, and cross-checks the compiled job's identity (kind, digests,
// index-space size) against the manifest, so a tampered or mismatched
// artifact is rejected instead of resumed into a poisoned curve. This is
// the resume path for processes that never saw the original request:
// shardmerge -resume and the server's spool-orphan recovery.
func JobFromManifest(m *shard.Manifest, exec Exec) (shard.Job, *Spec, error) {
	if len(m.Spec) == 0 {
		return shard.Job{}, nil, fmt.Errorf("workload: shard %d/%d of %q: %w", m.ShardIndex+1, m.ShardCount, m.Workload, ErrNoSpec)
	}
	s, err := Decode(m.Spec)
	if err != nil {
		return shard.Job{}, nil, err
	}
	if s.Kind != m.Kind {
		return shard.Job{}, nil, fmt.Errorf("workload: manifest kind %q but embedded spec kind %q", m.Kind, s.Kind)
	}
	job, err := s.Compile(shard.Plan{Index: m.ShardIndex, Count: m.ShardCount}, exec)
	if err != nil {
		return shard.Job{}, nil, err
	}
	switch {
	case job.WorkloadDigest != m.WorkloadDigest:
		return shard.Job{}, nil, fmt.Errorf("workload: embedded spec compiles to workload digest %.12s…, manifest has %.12s…",
			job.WorkloadDigest, m.WorkloadDigest)
	case job.OptionsDigest != m.OptionsDigest:
		return shard.Job{}, nil, fmt.Errorf("workload: embedded spec compiles to options digest %.12s…, manifest has %.12s…",
			job.OptionsDigest, m.OptionsDigest)
	case job.Items != m.Items:
		return shard.Job{}, nil, fmt.Errorf("workload: embedded spec compiles to %d items, manifest has %d", job.Items, m.Items)
	}
	return job, s, nil
}
