// Package shard scales bound derivation from one process to a fleet: it
// plans deterministic slices of the flat traversal index spaces the
// Orojenesis engines expose (bound.Space, fusion.TiledFusionSpace,
// multilevel.Space — each built on internal/traverse), runs one slice as a
// checkpointed, resumable traversal that periodically flushes a
// partial-frontier file, and merges the partials back into the
// byte-identical curve a single-process run produces.
//
// The workflow has three phases:
//
//  1. Plan: shard k of N evaluates the contiguous index slice
//     Plan{k, N}.Slice(items) of the [0, items) enumeration. Slices are
//     balanced to within one index and cover the space exactly, so the
//     plan needs no coordination beyond (k, N).
//  2. Run: a Runner walks its slice in checkpoint blocks, merging each
//     block's partial frontier into an accumulator and atomically
//     rewriting its partial-frontier file — the pareto JSON serialization
//     prefixed with a Manifest (workload digest, options digest, shard
//     index/count, evaluated-index range, engine version). A killed shard
//     restarted on the same file resumes at the last completed block;
//     because per-index evaluation is deterministic and Pareto insertion
//     idempotent, re-deriving a partially flushed block is harmless.
//  3. Merge: Merge validates that all manifests describe the same
//     derivation (digests, kind, space size, shard count), that every
//     shard is present exactly once and complete, and then Pareto-unions
//     the partial curves. The result is byte-identical to the
//     single-process curve because a Pareto frontier of a union equals
//     the frontier of the per-part frontiers' union.
//
// The file format is specified in docs/shard-format.md.
//
// Paper mapping: sharding is infrastructure beyond the paper's figures —
// it distributes the exhaustive Sec. III-B traversal (whose single-run
// cost the paper reports in Table I) across processes or hosts without
// changing any derived bound.
package shard

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// Plan identifies one shard of an N-way split of a flat index space:
// shard Index of Count, 0-based.
type Plan struct {
	Index int // 0-based shard index, in [0, Count)
	Count int // total number of shards, >= 1
}

// ParsePlan parses the CLI notation "k/N" with 1-based k (shard 1 of 4 is
// "1/4" and maps to Plan{0, 4}), matching how humans number fleet members.
func ParsePlan(s string) (Plan, error) {
	k, n, ok := strings.Cut(s, "/")
	if !ok {
		return Plan{}, fmt.Errorf("shard: plan %q: want k/N, e.g. 1/4", s)
	}
	ki, err1 := strconv.Atoi(strings.TrimSpace(k))
	ni, err2 := strconv.Atoi(strings.TrimSpace(n))
	if err1 != nil || err2 != nil {
		return Plan{}, fmt.Errorf("shard: plan %q: want integers k/N", s)
	}
	p := Plan{Index: ki - 1, Count: ni}
	if err := p.Validate(); err != nil {
		return Plan{}, fmt.Errorf("shard: plan %q: k must be in [1, N]", s)
	}
	return p, nil
}

// String renders the plan in the 1-based CLI notation, e.g. "1/4".
func (p Plan) String() string { return fmt.Sprintf("%d/%d", p.Index+1, p.Count) }

// Validate reports malformed plans: Count < 1 or Index outside [0, Count).
func (p Plan) Validate() error {
	if p.Count < 1 {
		return fmt.Errorf("shard: plan count %d, want >= 1", p.Count)
	}
	if p.Index < 0 || p.Index >= p.Count {
		return fmt.Errorf("shard: plan index %d outside [0, %d)", p.Index, p.Count)
	}
	return nil
}

// Slice returns the contiguous global index range [lo, hi) this shard
// evaluates out of [0, items). The split is balanced to within one index
// (the first items%Count shards take one extra) and deterministic, so all
// fleet members agree on the cover without coordination. Shards beyond the
// number of items receive empty ranges.
func (p Plan) Slice(items int64) (lo, hi int64) {
	if err := p.Validate(); err != nil {
		panic(err.Error())
	}
	if items < 0 {
		panic(fmt.Sprintf("shard: Slice of negative space %d", items))
	}
	n, k := int64(p.Count), int64(p.Index)
	base := items / n
	extra := items % n
	lo = k*base + min(k, extra)
	hi = lo + base
	if k < extra {
		hi++
	}
	return lo, hi
}

// Digest hashes a canonical description string (einsum.Canonical,
// fusion.Chain.Canonical, bound.Options.Canonical, ...) to the hex form
// stored in manifests. Two shards merge only if their digests agree, so
// anything that changes the derived curve must be part of the hashed
// string — and anything that does not (worker counts, checkpoint
// granularity) must stay out of it.
func Digest(canonical string) string {
	sum := sha256.Sum256([]byte(canonical))
	return hex.EncodeToString(sum[:])
}
