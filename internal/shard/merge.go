package shard

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/pareto"
)

// Merge validates that the partials are the complete set of shards of one
// derivation and Pareto-unions them into the full curve — byte-identical
// to the single-process result, because the frontier of a union equals
// the frontier of the per-part frontiers' union.
//
// Merge refuses, with an error naming the offending shard and field, any
// set where: manifests disagree on engine, kind, workload or options
// digest, index-space size or shard count; a shard is missing, duplicated
// or incomplete; or the curves' workload annotations diverge (which a
// matching workload digest should make impossible, so a divergence means
// a corrupted or hand-edited file).
func Merge(partials ...*Partial) (*pareto.Curve, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("shard: merge: no partial frontiers")
	}
	ref := &partials[0].Manifest
	if err := ref.Validate(); err != nil {
		return nil, fmt.Errorf("shard: merge: partial 0: %w", err)
	}
	if len(partials) != ref.ShardCount {
		return nil, fmt.Errorf("shard: merge: have %d partial frontiers, plan has %d shards", len(partials), ref.ShardCount)
	}
	seen := make([]bool, ref.ShardCount)
	curves := make([]*pareto.Curve, len(partials))
	for i, p := range partials {
		m := &p.Manifest
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("shard: merge: partial %d: %w", i, err)
		}
		if err := ref.CompatibleWith(m); err != nil {
			return nil, fmt.Errorf("shard: merge: partial %d does not belong to this derivation: %v: %w", i, err, ErrForeignPartial)
		}
		if seen[m.ShardIndex] {
			return nil, fmt.Errorf("shard: merge: shard %d/%d appears more than once", m.ShardIndex+1, m.ShardCount)
		}
		seen[m.ShardIndex] = true
		if !m.Complete() {
			return nil, fmt.Errorf("shard: merge: shard %d/%d is incomplete (evaluated through %d of [%d, %d)); resume it first",
				m.ShardIndex+1, m.ShardCount, m.CompletedThrough, m.RangeLo, m.RangeHi)
		}
		if p.Curve.AlgoMinBytes != partials[0].Curve.AlgoMinBytes ||
			p.Curve.TotalOperandBytes != partials[0].Curve.TotalOperandBytes {
			return nil, fmt.Errorf("shard: merge: shard %d/%d curve annotations (%d, %d) disagree with shard %d/%d (%d, %d)",
				m.ShardIndex+1, m.ShardCount, p.Curve.AlgoMinBytes, p.Curve.TotalOperandBytes,
				ref.ShardIndex+1, ref.ShardCount, partials[0].Curve.AlgoMinBytes, partials[0].Curve.TotalOperandBytes)
		}
		curves[i] = p.Curve
	}
	for k, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("shard: merge: shard %d/%d is missing", k+1, ref.ShardCount)
		}
	}
	merged := pareto.Union(curves...)
	merged.AlgoMinBytes = partials[0].Curve.AlgoMinBytes
	merged.TotalOperandBytes = partials[0].Curve.TotalOperandBytes
	return merged, nil
}

// MergeFiles reads the named partial-frontier files over fsys (nil =
// OS) and merges them.
func MergeFiles(fsys FS, paths ...string) (*pareto.Curve, error) {
	partials := make([]*Partial, len(paths))
	for i, path := range paths {
		p, err := ReadPartial(fsys, path)
		if err != nil {
			return nil, err
		}
		partials[i] = p
	}
	c, err := Merge(partials...)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Degraded is the result of a best-effort merge over an incomplete shard
// set (-allow-partial): the Pareto union of whatever index coverage the
// partials carry, explicitly annotated with how much of the enumeration
// that is. A degraded curve is an UNDER-approximation of the true
// frontier — unevaluated mappings can only add points at or above it, so
// it remains a valid lower bound on data movement, just a potentially
// loose one. The annotation is part of the serialized artifact
// (MarshalJSON) so a degraded curve can never masquerade as an exact one.
type Degraded struct {
	// Curve is the Pareto union over the covered indices, carrying the
	// usual workload annotations.
	Curve *pareto.Curve

	// Items is the full enumeration size; CoveredIndices is how many of
	// those indices the merged partials actually evaluated, and
	// CoveredFraction their ratio (1.0 iff the set was complete).
	Items           int64
	CoveredIndices  int64
	CoveredFraction float64

	// ShardCount is the plan size; MissingShards lists the 0-based shard
	// indices with no partial at all, IncompleteShards those present but
	// not run to completion. Both are sorted ascending.
	ShardCount       int
	MissingShards    []int
	IncompleteShards []int
}

// Complete reports whether the merge actually covered the whole space —
// i.e. the degraded path was requested but not needed.
func (d *Degraded) Complete() bool { return d.CoveredIndices == d.Items }

// degradedJSON is the serialized envelope of a degraded merge: the curve
// plus the coverage metadata, under an explicit "degraded" marker.
type degradedJSON struct {
	Degraded         bool          `json:"degraded"`
	Items            int64         `json:"items"`
	CoveredIndices   int64         `json:"covered_indices"`
	CoveredFraction  float64       `json:"covered_fraction"`
	ShardCount       int           `json:"shard_count"`
	MissingShards    []int         `json:"missing_shards,omitempty"`
	IncompleteShards []int         `json:"incomplete_shards,omitempty"`
	Curve            *pareto.Curve `json:"curve"`
}

// MarshalJSON emits the annotated envelope; the coverage metadata always
// travels with the curve.
func (d *Degraded) MarshalJSON() ([]byte, error) {
	return json.Marshal(degradedJSON{
		Degraded:         !d.Complete(),
		Items:            d.Items,
		CoveredIndices:   d.CoveredIndices,
		CoveredFraction:  d.CoveredFraction,
		ShardCount:       d.ShardCount,
		MissingShards:    d.MissingShards,
		IncompleteShards: d.IncompleteShards,
		Curve:            d.Curve,
	})
}

// UnmarshalJSON loads a degraded-merge envelope.
func (d *Degraded) UnmarshalJSON(data []byte) error {
	var dj degradedJSON
	if err := json.Unmarshal(data, &dj); err != nil {
		return err
	}
	if dj.Curve == nil {
		return fmt.Errorf("shard: degraded merge envelope missing curve")
	}
	*d = Degraded{
		Curve:            dj.Curve,
		Items:            dj.Items,
		CoveredIndices:   dj.CoveredIndices,
		CoveredFraction:  dj.CoveredFraction,
		ShardCount:       dj.ShardCount,
		MissingShards:    dj.MissingShards,
		IncompleteShards: dj.IncompleteShards,
	}
	return nil
}

// MergeDegraded merges whatever subset of one derivation's shards is
// available — missing and incomplete shards are tolerated and reported,
// not refused. Everything else stays as strict as Merge: the partials
// must all validate, describe the same derivation (digests, engine, kind,
// space, shard count — mismatches wrap ErrForeignPartial), appear at most
// once per shard index, and agree on curve annotations. At least one
// partial is required: with zero there is no manifest to even name the
// derivation.
func MergeDegraded(partials ...*Partial) (*Degraded, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("shard: degraded merge: no partial frontiers")
	}
	ref := &partials[0].Manifest
	if err := ref.Validate(); err != nil {
		return nil, fmt.Errorf("shard: degraded merge: partial 0: %w", err)
	}
	if len(partials) > ref.ShardCount {
		return nil, fmt.Errorf("shard: degraded merge: have %d partial frontiers, plan has only %d shards",
			len(partials), ref.ShardCount)
	}
	seen := make([]bool, ref.ShardCount)
	incomplete := make([]bool, ref.ShardCount)
	curves := make([]*pareto.Curve, len(partials))
	var covered int64
	for i, p := range partials {
		m := &p.Manifest
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("shard: degraded merge: partial %d: %w", i, err)
		}
		if err := ref.CompatibleWith(m); err != nil {
			return nil, fmt.Errorf("shard: degraded merge: partial %d does not belong to this derivation: %v: %w",
				i, err, ErrForeignPartial)
		}
		if seen[m.ShardIndex] {
			return nil, fmt.Errorf("shard: degraded merge: shard %d/%d appears more than once", m.ShardIndex+1, m.ShardCount)
		}
		seen[m.ShardIndex] = true
		incomplete[m.ShardIndex] = !m.Complete()
		covered += m.CompletedThrough - m.RangeLo
		if p.Curve.AlgoMinBytes != partials[0].Curve.AlgoMinBytes ||
			p.Curve.TotalOperandBytes != partials[0].Curve.TotalOperandBytes {
			return nil, fmt.Errorf("shard: degraded merge: shard %d/%d curve annotations (%d, %d) disagree with shard %d/%d (%d, %d)",
				m.ShardIndex+1, m.ShardCount, p.Curve.AlgoMinBytes, p.Curve.TotalOperandBytes,
				ref.ShardIndex+1, ref.ShardCount, partials[0].Curve.AlgoMinBytes, partials[0].Curve.TotalOperandBytes)
		}
		curves[i] = p.Curve
	}
	d := &Degraded{
		Items:      ref.Items,
		ShardCount: ref.ShardCount,
	}
	for k := range seen {
		switch {
		case !seen[k]:
			d.MissingShards = append(d.MissingShards, k)
		case incomplete[k]:
			d.IncompleteShards = append(d.IncompleteShards, k)
		}
	}
	sort.Ints(d.MissingShards)
	sort.Ints(d.IncompleteShards)
	d.CoveredIndices = covered
	if ref.Items > 0 {
		d.CoveredFraction = float64(covered) / float64(ref.Items)
	} else {
		d.CoveredFraction = 1
	}
	d.Curve = pareto.Union(curves...)
	d.Curve.AlgoMinBytes = partials[0].Curve.AlgoMinBytes
	d.Curve.TotalOperandBytes = partials[0].Curve.TotalOperandBytes
	// An actually-incomplete cover taints the curve itself, so the
	// degraded mark survives any further composition (pareto.Sum and
	// friends carry it) and any serialization of the bare curve.
	d.Curve.Degraded = !d.Complete()
	return d, nil
}
