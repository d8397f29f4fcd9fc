package shard

import (
	"encoding/json"
	"fmt"

	"repro/internal/pareto"
)

// Merge validates that the partials are the complete set of shards of one
// derivation and Pareto-unions them into the full curve — byte-identical
// to the single-process result, because the frontier of a union equals
// the frontier of the per-part frontiers' union. It is MergeDegraded
// refusing a missing or incomplete shard: beyond MergeDegraded's
// refusals, a set that lacks a shard or holds one not run to completion
// is an error naming that shard.
func Merge(partials ...*Partial) (*pareto.Curve, error) {
	d, err := MergeDegraded(partials...)
	if err != nil {
		return nil, err
	}
	if len(partials) != d.ShardCount {
		return nil, fmt.Errorf("shard: merge: have %d partial frontiers, plan has %d shards", len(partials), d.ShardCount)
	}
	for _, p := range partials {
		if m := &p.Manifest; !m.Complete() {
			return nil, fmt.Errorf("shard: merge: shard %d/%d is incomplete (evaluated through %d of [%d, %d)); resume it first",
				m.ShardIndex+1, m.ShardCount, m.CompletedThrough, m.RangeLo, m.RangeHi)
		}
	}
	return d.Curve, nil
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
	// Items is the full enumeration size; CoveredIndices is how many of
	// those indices the merged partials actually evaluated, and
	// CoveredFraction their ratio (1.0 iff the set was complete).
	Items           int64   `json:"items"`
	CoveredIndices  int64   `json:"covered_indices"`
	CoveredFraction float64 `json:"covered_fraction"`

	// ShardCount is the plan size; MissingShards lists the 0-based shard
	// indices with no partial at all, IncompleteShards those present but
	// not run to completion. Both are sorted ascending.
	ShardCount       int   `json:"shard_count"`
	MissingShards    []int `json:"missing_shards,omitempty"`
	IncompleteShards []int `json:"incomplete_shards,omitempty"`

	// Curve is the Pareto union over the covered indices, carrying the
	// usual workload annotations.
	Curve *pareto.Curve `json:"curve"`
}

// Complete reports whether the merge actually covered the whole space —
// i.e. the degraded path was requested but not needed.
func (d *Degraded) Complete() bool { return d.CoveredIndices == d.Items }

// degradedFields is Degraded without its methods, so its fields encode
// and decode plainly inside the envelope.
type degradedFields Degraded

// MarshalJSON emits the annotated envelope: an explicit "degraded"
// marker, the coverage metadata, then the curve, so the annotation
// always travels with the curve.
func (d *Degraded) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Degraded bool `json:"degraded"`
		degradedFields
	}{!d.Complete(), degradedFields(*d)})
}

// UnmarshalJSON loads a degraded-merge envelope.
func (d *Degraded) UnmarshalJSON(data []byte) error {
	var f degradedFields
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	if f.Curve == nil {
		return fmt.Errorf("shard: degraded merge envelope missing curve")
	}
	*d = Degraded(f)
	return nil
}

// MergeDegraded is the one routine that validates and unions a set of
// one derivation's partials; Merge is it refusing an incomplete cover.
// Missing and incomplete shards are tolerated and reported, not refused.
// The partials must all validate, describe the same derivation (digests,
// engine, kind, space, shard count — mismatches wrap ErrForeignPartial),
// appear at most once per shard index, and agree on curve annotations;
// otherwise the error names the offending partial and field. A curve
// annotation divergence should be impossible under a matching workload
// digest, so it means a corrupted or hand-edited file. At least one
// partial is required: with zero there is no manifest to even name the
// derivation.
func MergeDegraded(partials ...*Partial) (*Degraded, error) {
	if len(partials) == 0 {
		return nil, fmt.Errorf("shard: merge: no partial frontiers")
	}
	ref := &partials[0].Manifest
	if err := ref.Validate(); err != nil {
		return nil, fmt.Errorf("shard: merge: partial 0: %w", err)
	}
	seen := make([]bool, ref.ShardCount)
	incomplete := make([]bool, ref.ShardCount)
	curves := make([]*pareto.Curve, len(partials))
	d := &Degraded{Items: ref.Items, ShardCount: ref.ShardCount}
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
		incomplete[m.ShardIndex] = !m.Complete()
		d.CoveredIndices += m.CompletedThrough - m.RangeLo
		if p.Curve.AlgoMinBytes != partials[0].Curve.AlgoMinBytes ||
			p.Curve.TotalOperandBytes != partials[0].Curve.TotalOperandBytes {
			return nil, fmt.Errorf("shard: merge: shard %d/%d curve annotations (%d, %d) disagree with shard %d/%d (%d, %d)",
				m.ShardIndex+1, m.ShardCount, p.Curve.AlgoMinBytes, p.Curve.TotalOperandBytes,
				ref.ShardIndex+1, ref.ShardCount, partials[0].Curve.AlgoMinBytes, partials[0].Curve.TotalOperandBytes)
		}
		curves[i] = p.Curve
	}
	for k := range seen {
		switch {
		case !seen[k]:
			d.MissingShards = append(d.MissingShards, k)
		case incomplete[k]:
			d.IncompleteShards = append(d.IncompleteShards, k)
		}
	}
	d.CoveredFraction = 1
	if ref.Items > 0 {
		d.CoveredFraction = float64(d.CoveredIndices) / float64(ref.Items)
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
