package shard

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/pareto"
)

// Named error classes the shard scheduler (internal/fleet) routes on.
// Every failure Run or ReadPartial reports wraps exactly one of these (or
// a context error), so callers can decide between quarantine-and-rederive,
// retry, and give-up with errors.Is instead of string matching.
var (
	// ErrCorruptPartial marks a file that is not a readable partial
	// frontier of a supported format: truncated or torn JSON, a zeroed
	// tail, a failed structural validation, an unknown format version, or
	// invalid curve annotations. The artifact is evidence of a problem;
	// the safe automated response is quarantine (rename aside) followed
	// by re-derivation, never silent overwrite.
	ErrCorruptPartial = errors.New("corrupt partial frontier")

	// ErrForeignPartial marks a structurally valid partial that belongs
	// to a different derivation (workload/options digest, engine, kind,
	// space size or shard count mismatch) or to a different shard of the
	// same plan. Resuming from it would poison the curve.
	ErrForeignPartial = errors.New("foreign partial frontier")
)

// FormatVersion is the partial-frontier file schema version written by
// this package. Version 2 added the embedded workload spec (the Spec
// manifest field); version-1 files — identical except for that field —
// are still readable, and Run transparently upgrades them on resume.
// Readers refuse versions outside [MinFormatVersion, FormatVersion].
const FormatVersion = 2

// MinFormatVersion is the oldest partial-frontier schema this package
// still reads: version 1, the pre-spec layout.
const MinFormatVersion = 1

// Engine tags the derivation engine revision. Bump it whenever an
// evaluator or enumeration-order change alters derived curves, so stale
// partials from an older binary refuse to merge with fresh ones instead
// of silently producing a curve no single engine version would derive.
const Engine = "orojenesis/1"

// Kind names the derivation path a partial frontier came from. Partial
// frontiers of different kinds never merge, even over the same workload:
// a bound curve and a tiled-fusion curve answer different questions.
type Kind string

// The derivation paths with sharded index spaces.
const (
	KindBound        Kind = "bound"        // bound.DeriveRange over a single Einsum's mapspace
	KindFusionTiled  Kind = "fusion-tiled" // fusion.TiledFusionRange over a chain's FFMT template space
	KindMultiLevel   Kind = "multilevel"   // multilevel.DeriveRange over the three-split combination space (DRAM frontier)
	KindSegmentation Kind = "segmentation" // fusion.SegmentationSweep.Range over a chain's 2^(n-1) cut-pattern mask space
)

// Manifest is the partial-frontier file header: everything a merge needs
// to decide whether two partials describe shares of the same derivation,
// and everything a resume needs to continue a killed shard.
type Manifest struct {
	// FormatVersion and Engine pin the file schema and the derivation
	// engine revision (see the package constants).
	FormatVersion int    `json:"format_version"`
	Engine        string `json:"engine"`

	// Kind is the derivation path (bound, fusion-tiled).
	Kind Kind `json:"kind"`

	// Workload is a human-readable workload label. It is informational
	// only; compatibility is decided by WorkloadDigest.
	Workload string `json:"workload"`

	// WorkloadDigest and OptionsDigest are Digest values over the
	// canonical workload and result-affecting-options encodings. Partials
	// merge only when both agree.
	WorkloadDigest string `json:"workload_digest"`
	OptionsDigest  string `json:"options_digest"`

	// ShardIndex (0-based) of ShardCount identifies this shard's place in
	// the plan; Items is the size of the full flat index space, so every
	// reader can recompute the expected Plan.Slice.
	ShardIndex int   `json:"shard_index"`
	ShardCount int   `json:"shard_count"`
	Items      int64 `json:"items"`

	// RangeLo and RangeHi are the shard's evaluated-index range [lo, hi),
	// as assigned by Plan.Slice(Items).
	RangeLo int64 `json:"range_lo"`
	RangeHi int64 `json:"range_hi"`

	// CompletedThrough is the resumable high-water mark: every global
	// index in [RangeLo, CompletedThrough) is reflected in the stored
	// curve. A shard is complete when CompletedThrough == RangeHi.
	CompletedThrough int64 `json:"completed_through"`

	// Spec is the canonically encoded workload spec
	// (internal/workload.Spec) the job was compiled from, carried so a
	// partial frontier alone suffices to rebuild and finish its job in a
	// process that never saw the original request (shardmerge -resume,
	// spool-orphan recovery). Empty on format-version-1 files; never part
	// of compatibility decisions — the digests are authoritative.
	Spec json.RawMessage `json:"spec,omitempty"`
}

// Complete reports whether the shard finished its whole slice.
func (m *Manifest) Complete() bool { return m.CompletedThrough >= m.RangeHi }

// Validate reports structurally broken manifests (before any
// compatibility question arises): unknown versions, inverted ranges, or a
// range that disagrees with the shard plan.
func (m *Manifest) Validate() error {
	if m.FormatVersion < MinFormatVersion || m.FormatVersion > FormatVersion {
		return fmt.Errorf("shard: manifest format version %d, this reader supports %d through %d",
			m.FormatVersion, MinFormatVersion, FormatVersion)
	}
	if m.Engine == "" {
		return fmt.Errorf("shard: manifest missing engine version")
	}
	if m.Kind != KindBound && m.Kind != KindFusionTiled && m.Kind != KindMultiLevel && m.Kind != KindSegmentation {
		return fmt.Errorf("shard: manifest has unknown kind %q", m.Kind)
	}
	if m.WorkloadDigest == "" || m.OptionsDigest == "" {
		return fmt.Errorf("shard: manifest missing workload/options digest")
	}
	p := Plan{Index: m.ShardIndex, Count: m.ShardCount}
	if err := p.Validate(); err != nil {
		return err
	}
	if m.Items < 0 {
		return fmt.Errorf("shard: manifest has negative index space %d", m.Items)
	}
	if lo, hi := p.Slice(m.Items); lo != m.RangeLo || hi != m.RangeHi {
		return fmt.Errorf("shard: manifest range [%d, %d) does not match plan %s of %d items (want [%d, %d))",
			m.RangeLo, m.RangeHi, p, m.Items, lo, hi)
	}
	if m.CompletedThrough < m.RangeLo || m.CompletedThrough > m.RangeHi {
		return fmt.Errorf("shard: manifest completed-through %d outside range [%d, %d]",
			m.CompletedThrough, m.RangeLo, m.RangeHi)
	}
	return nil
}

// CompatibleWith reports with a descriptive error why two manifests do not
// describe shares of one derivation: any difference in engine, kind,
// digests, index-space size or shard count. Shard index and completion
// state are deliberately not compared — distinct shards of one plan are
// exactly what merges want. Format version is not compared either: both
// manifests already passed Validate's supported-version check, and the
// supported versions differ only in the informational Spec field, so a
// legacy version-1 shard merges cleanly with an upgraded version-2 one.
func (m *Manifest) CompatibleWith(o *Manifest) error {
	switch {
	case m.Engine != o.Engine:
		return fmt.Errorf("engine %q vs %q", m.Engine, o.Engine)
	case m.Kind != o.Kind:
		return fmt.Errorf("kind %q vs %q", m.Kind, o.Kind)
	case m.WorkloadDigest != o.WorkloadDigest:
		return fmt.Errorf("workload digest %.12s… vs %.12s… (different workloads)", m.WorkloadDigest, o.WorkloadDigest)
	case m.OptionsDigest != o.OptionsDigest:
		return fmt.Errorf("options digest %.12s… vs %.12s… (different derivation options)", m.OptionsDigest, o.OptionsDigest)
	case m.Items != o.Items:
		return fmt.Errorf("index space %d vs %d items", m.Items, o.Items)
	case m.ShardCount != o.ShardCount:
		return fmt.Errorf("shard count %d vs %d", m.ShardCount, o.ShardCount)
	}
	return nil
}

// Partial is one shard's partial frontier: the manifest plus the Pareto
// curve over every evaluated index in [RangeLo, CompletedThrough). The
// curve carries the workload annotations (AlgoMinBytes,
// TotalOperandBytes), which depend only on the workload and are therefore
// already final on every partial.
type Partial struct {
	Manifest Manifest      `json:"manifest"`
	Curve    *pareto.Curve `json:"curve"`
}

// writePartial atomically and durably replaces path with the serialized
// partial (WriteFileAtomic over fsys), so a process kill mid-flush
// leaves the previous checkpoint intact and a committed checkpoint
// survives a host crash.
func writePartial(fsys FS, path string, p *Partial) error {
	if err := p.Manifest.Validate(); err != nil {
		return err
	}
	data, err := json.Marshal(p)
	if err != nil {
		return fmt.Errorf("shard: encoding partial: %w", err)
	}
	if err := WriteFileAtomic(fsys, path, append(data, '\n')); err != nil {
		return fmt.Errorf("shard: partial: %w", err)
	}
	return nil
}

// ReadPartial loads and structurally validates a partial-frontier file
// over fsys (nil = OS). A file that exists but cannot be parsed or
// validated yields an error wrapping ErrCorruptPartial; a missing file
// yields the underlying fs.ErrNotExist.
func ReadPartial(fsys FS, path string) (*Partial, error) {
	data, err := orOS(fsys).ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: reading partial: %w", err)
	}
	p, err := DecodePartial(data)
	if err != nil {
		return nil, fmt.Errorf("shard: partial %s: %w", path, err)
	}
	return p, nil
}

// DecodePartial parses and structurally validates the bytes of a partial
// frontier, from a file or a network response. Bytes that do not parse,
// fail Manifest.Validate or carry no curve yield an error wrapping
// ErrCorruptPartial.
func DecodePartial(data []byte) (*Partial, error) {
	var p Partial
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptPartial, err)
	}
	if err := p.Manifest.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptPartial, err)
	}
	if p.Curve == nil {
		return nil, fmt.Errorf("%w: missing curve", ErrCorruptPartial)
	}
	return &p, nil
}

// Admit decodes data as a partial frontier and checks that it belongs in
// the slot of the shard whose fresh manifest is want (Job.Manifest): the
// one admission rule for a slot, whether the bytes come from the slot's
// file (Run's resume, Claim) or from a remote worker (the fleet). The
// partial must decode (DecodePartial), describe the same derivation
// (CompatibleWith) and the same shard, and, when complete is set, cover
// its whole slice. Undecodable bytes wrap ErrCorruptPartial and another
// derivation's or shard's partial wraps ErrForeignPartial; an incomplete
// one is a plain error.
func Admit(data []byte, want *Manifest, complete bool) (*Partial, error) {
	p, err := DecodePartial(data)
	if err != nil {
		return nil, err
	}
	m := &p.Manifest
	if err := m.CompatibleWith(want); err != nil {
		return nil, fmt.Errorf("holds a different derivation (%v): %w", err, ErrForeignPartial)
	}
	if m.ShardIndex != want.ShardIndex {
		return nil, fmt.Errorf("holds shard %d/%d, want %d/%d: %w",
			m.ShardIndex+1, m.ShardCount, want.ShardIndex+1, want.ShardCount, ErrForeignPartial)
	}
	if complete && !m.Complete() {
		return nil, fmt.Errorf("incomplete: completed through %d of [%d, %d)", m.CompletedThrough, m.RangeLo, m.RangeHi)
	}
	return p, nil
}
