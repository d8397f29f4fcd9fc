// Package workload makes derivations first-class values: a Spec is a
// JSON-serializable, canonically encoded description of one derivation —
// the kind, the workload (Einsum or chain) and the result-affecting
// options, exactly the fields the shard digests hash — and its methods
// turn it into work: an in-process run, or a compiled shard.Job for the
// sharded/supervised/served paths. Every kind is one row of an unexported
// table (its fields, validation, canonical encodings, label, space size
// and range derivation), which the Spec methods read after validating.
//
// The Spec is the wire contract of the distributed derivation fleet: a
// coordinator ships a Spec (plus a shard plan) to a worker, the worker
// compiles it, and the resulting partial frontiers merge byte-identically
// with everyone else's because identity lives in the canonical encodings,
// not in any process state. The same mechanism makes orphaned work
// self-describing — shard manifests (internal/shard) and server spool
// directories (internal/serve) embed the Spec, so a resuming process
// rebuilds the job from the artifact alone, without the original request.
// See docs/workload-spec.md for the schema.
//
// Execution knobs that do not affect results (worker counts) are
// deliberately not part of the Spec; they travel separately as Exec.
package workload

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/pareto"
	"repro/internal/shard"
)

// ErrUnmaterialized marks an operation that needs derived inputs the
// Spec does not carry yet: a segmentation Spec without its per-op curves
// cannot be compiled into a shard job or canonically digested until
// Materialize has filled them in.
var ErrUnmaterialized = errors.New("workload: spec is missing derived inputs; run Materialize first")

// Spec is one derivation, described completely and serializably: which
// derivation path (Kind), over which workload (exactly one of Einsum or
// Chain), under which result-affecting options. Two Specs with equal
// canonical encodings denote the same derivation and produce
// byte-identical curves on any machine and worker count.
//
// The JSON field set is strict in both directions: Decode rejects
// unknown fields, and Validate rejects fields that do not belong to the
// Spec's kind, so a typo or a mismatched option degrades to an error
// instead of a silently different derivation.
type Spec struct {
	// Kind selects the derivation path (shard.KindBound,
	// shard.KindFusionTiled, shard.KindMultiLevel,
	// shard.KindSegmentation).
	Kind shard.Kind `json:"kind"`

	// Einsum is the workload of the single-Einsum kinds (bound,
	// multilevel), encoded structurally — name, ranks in declaration
	// order, tensor projections, element size — so it round-trips
	// exactly (the textual expression syntax does not: it loses the
	// declared rank order and element size).
	Einsum *einsum.Einsum `json:"einsum,omitempty"`

	// Chain is the workload of the chain kinds (fusion-tiled,
	// segmentation).
	Chain *fusion.Chain `json:"chain,omitempty"`

	// Bound carries the result-affecting two-level bound options; only
	// valid (and optional) for kind "bound".
	Bound *BoundOptions `json:"bound,omitempty"`

	// MultiLevel carries the three-level derivation's options; required
	// for kind "multilevel".
	MultiLevel *MultiLevelOptions `json:"multilevel,omitempty"`

	// PerOp holds the segmentation study's per-op standalone curves —
	// derivation inputs that are part of the workload digest. They are a
	// pure function of the chain (derived with default bound options),
	// so Materialize can fill them in; a materialized Spec embedded in a
	// shard manifest lets a resuming process skip re-deriving them.
	// Only valid for kind "segmentation".
	PerOp []*pareto.Curve `json:"per_op,omitempty"`
}

// BoundOptions mirrors the result-affecting fields of bound.Options.
// Worker counts are execution knobs (results are worker-agnostic) and
// deliberately absent.
type BoundOptions struct {
	// ImperfectExtra widens the mapspace with that many imperfect
	// (non-divisor) tile sizes per rank.
	ImperfectExtra int `json:"imperfect_extra,omitempty"`
	// ChargeSpills switches to physical partial-sum accounting.
	ChargeSpills bool `json:"charge_spills,omitempty"`
}

// MultiLevelOptions selects the three-level derivation's configuration.
type MultiLevelOptions struct {
	// L1CapBytes is the innermost-buffer capacity gating mapping
	// feasibility; must be >= 1. It is part of the derivation's identity
	// (the options digest).
	L1CapBytes int64 `json:"l1_cap_bytes"`
}

// Exec carries the execution knobs that tune how a derivation runs
// without affecting what it computes. Kept out of the Spec so identical
// Specs stay identical across differently provisioned workers.
type Exec struct {
	// Workers sets the number of parallel evaluation goroutines; zero
	// means GOMAXPROCS.
	Workers int
}

// NewBound builds the Spec of a two-level bound derivation over e. Only
// the result-affecting fields of opts are captured; Workers is dropped.
func NewBound(e *einsum.Einsum, opts bound.Options) *Spec {
	s := &Spec{Kind: shard.KindBound, Einsum: e}
	if opts.ImperfectExtra != 0 || opts.ChargeSpills {
		s.Bound = &BoundOptions{ImperfectExtra: opts.ImperfectExtra, ChargeSpills: opts.ChargeSpills}
	}
	return s
}

// NewMultiLevel builds the Spec of a three-level (L1/L2/DRAM) derivation
// over e with the given L1 capacity.
func NewMultiLevel(e *einsum.Einsum, l1CapBytes int64) *Spec {
	return &Spec{Kind: shard.KindMultiLevel, Einsum: e, MultiLevel: &MultiLevelOptions{L1CapBytes: l1CapBytes}}
}

// NewFusionTiled builds the Spec of a chain's tiled-fusion (FFMT
// template) sweep.
func NewFusionTiled(c *fusion.Chain) *Spec {
	return &Spec{Kind: shard.KindFusionTiled, Chain: c}
}

// NewSegmentation builds the Spec of a chain's segmentation study.
// perOp may be nil — an unmaterialized Spec; Materialize derives the
// per-op curves before the Spec is compiled or digested.
func NewSegmentation(c *fusion.Chain, perOp []*pareto.Curve) *Spec {
	return &Spec{Kind: shard.KindSegmentation, Chain: c, PerOp: perOp}
}

// Encode renders the Spec as its canonical JSON: validated, normalized
// (an all-default Bound options object is dropped), and marshalled with
// Go's deterministic struct-field order, so equal Specs encode to equal
// bytes. The result is what shard manifests and spool spec.json files
// embed.
func (s *Spec) Encode() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s.encode()
}

// encode is Encode for a Spec that has already validated.
func (s *Spec) encode() ([]byte, error) {
	c := *s
	if c.Bound != nil && *c.Bound == (BoundOptions{}) {
		c.Bound = nil
	}
	data, err := json.Marshal(&c)
	if err != nil {
		return nil, fmt.Errorf("workload: encoding spec: %w", err)
	}
	return data, nil
}

// Decode parses and validates a Spec from JSON. Unknown top-level fields
// and unknown kinds are rejected — a Spec from a newer schema fails
// loudly instead of deriving something subtly different.
func Decode(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload: decoding spec: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("workload: decoding spec: trailing data after JSON object")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
