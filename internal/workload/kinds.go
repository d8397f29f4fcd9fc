package workload

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/multilevel"
	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/shard"
)

// Result is what an in-process Run produces: the frontier, the number of
// index-space points evaluated, and — for segmentation studies only —
// the per-strategy curves.
type Result struct {
	// Curve is the derived frontier (the DRAM curve for multilevel, the
	// capacity-wise best curve for segmentation).
	Curve *pareto.Curve
	// Evaluated counts the enumeration indices evaluated.
	Evaluated int64
	// Segments holds one entry per segmentation strategy, in mask order;
	// nil for every other kind.
	Segments []Segment
}

// Segment is one segmentation strategy's curve. The JSON layout is the
// serve response envelope's segment entry (internal/serve aliases its
// SegmentResult to this type), so in-process and served segmentation
// studies render identically.
type Segment struct {
	// Label renders the strategy's op spans, e.g. "[0:1)[1:3)".
	Label string `json:"label"`
	// Cuts are the first op indices of every segment after the first.
	Cuts []int `json:"cuts,omitempty"`
	// Points is the number of frontier breakpoints in Curve.
	Points int `json:"points"`
	// Curve is the strategy's frontier.
	Curve *pareto.Curve `json:"curve"`
}

// field is one optional Spec field, as a bit of a kind's field sets.
type field uint8

const (
	fieldEinsum field = 1 << iota
	fieldChain
	fieldBound
	fieldMultiLevel
	fieldPerOp
)

// specFields names every optional Spec field and reports whether a Spec
// sets it.
var specFields = [...]struct {
	f    field
	name string
	set  func(*Spec) bool
}{
	{fieldEinsum, "an einsum", func(s *Spec) bool { return s.Einsum != nil }},
	{fieldChain, "a chain", func(s *Spec) bool { return s.Chain != nil }},
	{fieldBound, "bound options", func(s *Spec) bool { return s.Bound != nil }},
	{fieldMultiLevel, "multilevel options", func(s *Spec) bool { return s.MultiLevel != nil }},
	{fieldPerOp, "per-op curves", func(s *Spec) bool { return s.PerOp != nil }},
}

// kindDef is one derivation kind's row of the kinds table: everything the
// generic Spec methods need to know about the kind. The functions see only
// Specs that validated against the row.
type kindDef struct {
	kind shard.Kind

	// takes is the set of Spec fields the kind accepts; needs is the
	// subset it requires.
	takes, needs field

	// check is the kind's validation beyond its field set and the
	// workload's own Validate; nil when there is none.
	check func(s *Spec) error

	// workload and options render the canonical encodings the shard
	// digests hash.
	workload, options func(s *Spec) string

	// label renders the human-readable workload label stamped into
	// manifests and reported as the served response's workload field.
	label func(s *Spec) string

	// ceiling bounds every byte count the kind's derivation can form
	// (einsumCeiling, chainCeiling); def rejects a Spec whose ceiling does
	// not fit an int64, so no count wraps.
	ceiling func(s *Spec) count

	// space sizes the flat enumeration space shard plans slice.
	space func(s *Spec) (int64, error)

	// derive builds one job's range derivation over the space.
	derive func(s *Spec, workers int) (shard.DeriveFunc, error)

	// materialize derives the inputs a Spec does not carry yet (the
	// segmentation study's per-op curves) and run replaces the generic
	// derive-over-[0, space) Run; both are nil except for segmentation.
	materialize func(ctx context.Context, s *Spec, exec Exec) (*Spec, error)
	run         func(ctx context.Context, s *Spec, exec Exec) (*Result, error)
}

// kinds is the table of the paper's four derivation kinds.
var kinds = [...]kindDef{
	{
		// The two-level Snowcat bound over one Einsum's mapspace:
		// perfect, imperfect or spill-charged.
		kind:     shard.KindBound,
		takes:    fieldEinsum | fieldBound,
		needs:    fieldEinsum,
		check:    func(s *Spec) error { return boundOpts(s, 0).Validate() },
		workload: func(s *Spec) string { return s.Einsum.Canonical() },
		options:  func(s *Spec) string { return boundOpts(s, 0).Canonical() },
		label:    func(s *Spec) string { return s.Einsum.String() },
		ceiling:  func(s *Spec) count { return einsumCeiling(s.Einsum) },
		space:    func(s *Spec) (int64, error) { return bound.Space(s.Einsum, boundOpts(s, 0)) },
		derive: func(s *Spec, workers int) (shard.DeriveFunc, error) {
			o := boundOpts(s, workers)
			if err := o.Validate(); err != nil {
				return nil, err
			}
			return func(ctx context.Context, floor, lo, hi int64) (*pareto.Curve, int64, error) {
				r, err := bound.DeriveRange(ctx, s.Einsum, o, floor, lo, hi)
				if err != nil {
					return nil, 0, err
				}
				return r.Curve, r.Stats.MappingsEvaluated, nil
			}, nil
		},
	},
	{
		// The three-level (L1/L2/DRAM) joint bound. Its partial frontier
		// is the DRAM curve: partials over a disjoint cover Pareto-union
		// to the full-range DRAM frontier. The L2 curve and the joint
		// table are in-process refinements (multilevel.Merge) and are not
		// serialized.
		kind:  shard.KindMultiLevel,
		takes: fieldEinsum | fieldMultiLevel,
		needs: fieldEinsum | fieldMultiLevel,
		check: func(s *Spec) error {
			if s.MultiLevel.L1CapBytes < 1 {
				return fmt.Errorf("workload: multilevel l1_cap_bytes %d, want >= 1", s.MultiLevel.L1CapBytes)
			}
			return nil
		},
		workload: func(s *Spec) string { return s.Einsum.Canonical() },
		// The L1 capacity gates mapping feasibility, so it is part of
		// the derivation's identity; worker counts are not.
		options: func(s *Spec) string { return fmt.Sprintf("multilevel{l1_cap_bytes=%d}", s.MultiLevel.L1CapBytes) },
		label: func(s *Spec) string {
			return fmt.Sprintf("%s three-level L1=%dB", s.Einsum.String(), s.MultiLevel.L1CapBytes)
		},
		ceiling: func(s *Spec) count { return einsumCeiling(s.Einsum) },
		space:   func(s *Spec) (int64, error) { return multilevel.Space(s.Einsum) },
		derive: func(s *Spec, workers int) (shard.DeriveFunc, error) {
			o := multilevel.Options{Workers: workers}
			return func(ctx context.Context, _, lo, hi int64) (*pareto.Curve, int64, error) {
				r, err := multilevel.DeriveRange(ctx, s.Einsum, s.MultiLevel.L1CapBytes, lo, hi, o)
				if err != nil {
					return nil, 0, err
				}
				return r.DRAM, r.Mappings, nil
			}, nil
		},
	},
	{
		// The tiled-fusion sweep over a chain's FFMT template space. It
		// has no result-affecting options, so the options digest covers
		// only the kind.
		kind:     shard.KindFusionTiled,
		takes:    fieldChain,
		needs:    fieldChain,
		workload: func(s *Spec) string { return s.Chain.Canonical() },
		options:  func(*Spec) string { return "fusion-tiled{}" },
		label: func(s *Spec) string {
			return fmt.Sprintf("%s: %d ops over M=%d", s.Chain.Name, len(s.Chain.Ops), s.Chain.M)
		},
		ceiling: func(s *Spec) count { return chainCeiling(s.Chain) },
		space:   func(s *Spec) (int64, error) { return fusion.TiledFusionSpace(s.Chain) },
		derive: func(s *Spec, workers int) (shard.DeriveFunc, error) {
			return func(ctx context.Context, _, lo, hi int64) (*pareto.Curve, int64, error) {
				curve, ts, err := fusion.TiledFusionRange(ctx, s.Chain, lo, hi, workers)
				if err != nil {
					return nil, 0, err
				}
				return curve, ts.Evaluated, nil
			}, nil
		},
	},
	{
		// The segmentation study over a chain's 2^(n-1) cut-pattern
		// masks. Its per-op standalone curves are derivation inputs
		// (part of the workload digest); an unmaterialized Spec carries
		// only the chain and derives them on Materialize with default
		// bound options, so they — and hence the digests — are a pure
		// function of the chain.
		kind:     shard.KindSegmentation,
		takes:    fieldChain | fieldPerOp,
		needs:    fieldChain,
		check:    checkPerOp,
		workload: segmentationCanonical,
		options:  func(*Spec) string { return "segmentation{}" },
		label: func(s *Spec) string {
			return fmt.Sprintf("%s: %d-op segmentation study over M=%d", s.Chain.Name, len(s.Chain.Ops), s.Chain.M)
		},
		ceiling: func(s *Spec) count { return chainCeiling(s.Chain) },
		space:   func(s *Spec) (int64, error) { return fusion.SegmentationSpace(s.Chain) },
		// The sweep is held across the job's checkpoint blocks so fused
		// sub-chain curves are memoized for the life of the process. The
		// memo is derived state and is never checkpointed: a resumed shard
		// rebuilds it lazily from the masks it still has to evaluate
		// (recompute-on-resume; see docs/shard-format.md).
		derive: func(s *Spec, workers int) (shard.DeriveFunc, error) {
			sweep, err := fusion.NewSegmentationSweep(s.Chain, s.PerOp)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, _, lo, hi int64) (*pareto.Curve, int64, error) {
				curve, ts, err := sweep.Range(ctx, lo, hi, workers)
				if err != nil {
					return nil, 0, err
				}
				return curve, ts.Evaluated, nil
			}, nil
		},
		materialize: materializePerOp,
		run:         runSegmentation,
	},
}

// lookup returns the table row of kind, or an error naming the known
// kinds.
func lookup(kind shard.Kind) (*kindDef, error) {
	for i := range kinds {
		if kinds[i].kind == kind {
			return &kinds[i], nil
		}
	}
	names := make([]string, len(kinds))
	for i := range kinds {
		names[i] = string(kinds[i].kind)
	}
	return nil, fmt.Errorf("workload: unknown kind %q (known kinds: %s)", kind, strings.Join(names, ", "))
}

// def validates the Spec against its kind's row and returns the row: a
// known kind, exactly the fields that kind takes, a structurally valid
// workload, and the kind's own checks. Every Spec method that reads the
// table goes through here first, so none of them dereferences a field
// validation has not vouched for.
func (s *Spec) def() (*kindDef, error) {
	k, err := lookup(s.Kind)
	if err != nil {
		return nil, err
	}
	for _, sf := range specFields {
		switch set := sf.set(s); {
		case set && k.takes&sf.f == 0:
			return nil, fmt.Errorf("workload: kind %q does not take %s", s.Kind, sf.name)
		case !set && k.needs&sf.f != 0:
			return nil, fmt.Errorf("workload: kind %q needs %s", s.Kind, sf.name)
		}
	}
	if s.Einsum != nil {
		if err := s.Einsum.Validate(); err != nil {
			return nil, err
		}
	}
	if s.Chain != nil {
		if err := s.Chain.Validate(); err != nil {
			return nil, err
		}
	}
	if k.check != nil {
		if err := k.check(s); err != nil {
			return nil, err
		}
	}
	if !k.ceiling(s).ok {
		return nil, fmt.Errorf("workload: kind %q: the workload's byte counts can exceed int64 (their ceiling overflows)", s.Kind)
	}
	return k, nil
}

// count is a checked non-negative int64 accumulation: ok turns false for
// good once a product or sum no longer fits.
type count struct {
	n  int64
	ok bool
}

func (c count) mul(x int64) count {
	n, ok := shape.MulCount(c.n, x)
	return count{n, c.ok && ok}
}

func (c count) add(x count) count {
	return count{c.n + x.n, c.ok && x.ok && c.n <= math.MaxInt64-x.n}
}

// einsumCeiling bounds every byte count a derivation over e can form:
//
//	count ≤ 2 · #tensors · MACs · element size
//
// where MACs is the product of all rank extents. Each tensor holds at
// most MACs elements, since its footprint is a product of relevant
// extents and an affine index p+r−1 ≤ p·r keeps a halo under that
// product; so a buffer, at most Σ tensor bytes, is under the ceiling.
// Each tiling moves every tensor at most once per MAC, and a
// spill-charged output twice (write and read back), which is the 2.
func einsumCeiling(e *einsum.Einsum) count {
	c := count{2, true}.mul(int64(len(e.Tensors))).mul(e.ElementSize)
	for _, r := range e.Ranks {
		c = c.mul(r.Shape)
	}
	return c
}

// chainCeiling bounds every byte count a chain derivation can form: the
// sum over the ops of the op's reference-Einsum ceiling (its standalone
// curve, which the segmentation study and the unfused baseline add up)
// and of the fused schedule's own ceiling,
//
//	2 · M · (InW · (1 + HaloRows) + OutW + WInst) · element size,
//
// since a fused block of at least one row moves each op's input row and
// halo, its output row and at most its instance's weights, and a spilled
// row moves twice.
func chainCeiling(c *fusion.Chain) count {
	sum := count{0, true}
	for i := range c.Ops {
		op := &c.Ops[i]
		row := count{op.InW, true}.mul(1 + op.HaloRows).add(count{op.OutW, true}).add(count{op.WInst, true})
		sum = sum.add(einsumCeiling(op.Ref)).add(row.mul(2).mul(c.M).mul(c.ElementSize))
	}
	return sum
}

// materialized reports whether the Spec carries every input its kind
// derives before compiling. The per-op curves are the only such input.
func (k *kindDef) materialized(s *Spec) bool {
	return k.materialize == nil || s.PerOp != nil
}

// Validate checks the Spec against its kind: known kind, exactly the
// fields that kind uses, and a structurally valid workload.
func (s *Spec) Validate() error {
	_, err := s.def()
	return err
}

// Describe renders the human-readable workload label — the same string
// the compiled job stamps into manifests and the serve layer reports as
// the response's workload field. Informational only; identity lives in
// Digests. An invalid Spec renders as its validation error.
func (s *Spec) Describe() string {
	k, err := s.def()
	if err != nil {
		return fmt.Sprintf("<invalid spec: %v>", err)
	}
	return k.label(s)
}

// Digests returns the Spec's workload and options digests — the values
// its compiled jobs stamp into partial-frontier manifests. For
// segmentation Specs this requires the per-op curves (ErrUnmaterialized
// otherwise).
func (s *Spec) Digests() (workloadDigest, optionsDigest string, err error) {
	k, err := s.def()
	if err != nil {
		return "", "", err
	}
	if !k.materialized(s) {
		return "", "", fmt.Errorf("workload: %s digests need per-op curves: %w", s.Kind, ErrUnmaterialized)
	}
	return shard.Digest(k.workload(s)), shard.Digest(k.options(s)), nil
}

// CacheDigests returns the digests that name the Spec's derivation before
// its derived inputs exist — the cache identity (internal/store). They are
// the Digests of the Spec without its per-op curves, so they equal Digests
// for every kind but segmentation, whose workload digest then hashes only
// the chain. The divergence is sound because the per-op curves are a pure
// function of the chain: equal chains always yield equal shard digests.
func (s *Spec) CacheDigests() (workloadDigest, optionsDigest string, err error) {
	k, err := s.def()
	if err != nil {
		return "", "", err
	}
	bare := *s
	bare.PerOp = nil
	return shard.Digest(k.workload(&bare)), shard.Digest(k.options(&bare)), nil
}

// Space returns the size of the Spec's flat enumeration space — the
// Items every shard plan slices.
func (s *Spec) Space() (int64, error) {
	k, err := s.def()
	if err != nil {
		return 0, err
	}
	return k.space(s)
}

// Materialize derives any inputs the Spec needs before it can be compiled
// (the segmentation study's per-op curves), returning a Spec that carries
// them. Specs that need nothing are returned unchanged; an already
// materialized Spec is never re-derived.
func (s *Spec) Materialize(ctx context.Context, exec Exec) (*Spec, error) {
	k, err := s.def()
	if err != nil {
		return nil, err
	}
	if k.materialized(s) {
		return s, nil
	}
	return k.materialize(ctx, s, exec)
}

// Compile builds the shard job for one plan slice of the Spec's space,
// with the canonically encoded Spec embedded so every checkpoint manifest
// can rebuild the job (JobFromManifest). Every fleet member compiling the
// same Spec, with any worker count, produces partials that merge; Exec
// only affects how fast one shard runs. It needs a materialized Spec.
func (s *Spec) Compile(plan shard.Plan, exec Exec) (shard.Job, error) {
	wd, od, err := s.Digests()
	if err != nil {
		return shard.Job{}, fmt.Errorf("workload: compiling %s job: %w", s.Kind, err)
	}
	k, _ := lookup(s.Kind) // Digests validated the Spec against its kind
	if err := plan.Validate(); err != nil {
		return shard.Job{}, err
	}
	items, err := k.space(s)
	if err != nil {
		return shard.Job{}, err
	}
	derive, err := k.derive(s, exec.Workers)
	if err != nil {
		return shard.Job{}, err
	}
	enc, err := s.encode()
	if err != nil {
		return shard.Job{}, err
	}
	return shard.Job{
		Kind:           s.Kind,
		Workload:       k.label(s),
		WorkloadDigest: wd,
		OptionsDigest:  od,
		Items:          items,
		Plan:           plan,
		Spec:           enc,
		Derive:         derive,
	}, nil
}

// Run derives the Spec's full space in-process.
func (s *Spec) Run(ctx context.Context, exec Exec) (*Result, error) {
	k, err := s.def()
	if err != nil {
		return nil, err
	}
	if k.run != nil {
		return k.run(ctx, s, exec)
	}
	space, err := k.space(s)
	if err != nil {
		return nil, err
	}
	derive, err := k.derive(s, exec.Workers)
	if err != nil {
		return nil, err
	}
	curve, evaluated, err := derive(ctx, 0, 0, space)
	if err != nil {
		return nil, err
	}
	return &Result{Curve: curve, Evaluated: evaluated}, nil
}

// boundOpts assembles the full bound.Options from the Spec's
// result-affecting fields plus the worker count.
func boundOpts(s *Spec, workers int) bound.Options {
	o := bound.Options{Workers: workers}
	if s.Bound != nil {
		o.ImperfectExtra = s.Bound.ImperfectExtra
		o.ChargeSpills = s.Bound.ChargeSpills
	}
	return o
}

// checkPerOp validates a segmentation Spec's per-op curves, when present:
// one non-nil curve per op.
func checkPerOp(s *Spec) error {
	if s.PerOp == nil {
		return nil
	}
	if len(s.PerOp) != len(s.Chain.Ops) {
		return fmt.Errorf("workload: segmentation has %d per-op curves for a %d-op chain", len(s.PerOp), len(s.Chain.Ops))
	}
	for i, cv := range s.PerOp {
		if cv == nil {
			return fmt.Errorf("workload: segmentation per-op curve %d is nil", i)
		}
	}
	return nil
}

// segmentationCanonical renders the full workload identity of a
// segmentation study: the chain itself plus every per-op standalone
// curve. The per-op curves are derivation inputs (single-op segments reuse
// them verbatim), so two studies agree only when both the chain and the
// curves do. Without per-op curves it renders the chain alone — the cache
// identity CacheDigests hashes.
func segmentationCanonical(s *Spec) string {
	if s.PerOp == nil {
		return s.Chain.Canonical()
	}
	var b strings.Builder
	b.WriteString("segmentation{chain=")
	b.WriteString(s.Chain.Canonical())
	b.WriteString(" per_op=[")
	for i, cv := range s.PerOp {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(cv.Canonical())
	}
	b.WriteString("]}")
	return b.String()
}

// materializePerOp derives each op's standalone ski-slope curve (default
// bound options — no result-affecting fields set) and returns a Spec
// carrying them. Ops whose Einsums differ only in name (GPT-3's Q_proj
// and Final_proj) share one derivation: the name does not enter the
// curve. An already materialized Spec is returned unchanged, so
// embedded-Spec resumes never re-derive inputs.
func materializePerOp(ctx context.Context, s *Spec, exec Exec) (*Spec, error) {
	if s.PerOp != nil {
		return s, nil
	}
	opts := bound.Options{Workers: exec.Workers}
	curves := make([]*pareto.Curve, len(s.Chain.Ops))
	derived := make(map[string]*pareto.Curve, len(s.Chain.Ops))
	for i := range s.Chain.Ops {
		ref := s.Chain.Ops[i].Ref
		unnamed := *ref
		unnamed.Name = ""
		key := unnamed.Canonical()
		if c, ok := derived[key]; ok {
			curves[i] = c
			continue
		}
		space, err := bound.Space(ref, opts)
		if err != nil {
			return nil, fmt.Errorf("workload: per-op curve %d (%s): %w", i, ref.String(), err)
		}
		r, err := bound.DeriveRange(ctx, ref, opts, 0, 0, space)
		if err != nil {
			return nil, fmt.Errorf("workload: per-op curve %d (%s): %w", i, ref.String(), err)
		}
		curves[i] = r.Curve
		derived[key] = r.Curve
	}
	m := *s
	m.PerOp = curves
	return &m, nil
}

// runSegmentation runs the full per-strategy study, with the
// capacity-wise best curve annotated the way the serve layer has always
// reported it (fused algorithmic minimum, unfused total operand bytes).
func runSegmentation(ctx context.Context, s *Spec, exec Exec) (*Result, error) {
	m, err := materializePerOp(ctx, s, exec)
	if err != nil {
		return nil, err
	}
	study, ts, err := fusion.SegmentationStudyContext(ctx, m.Chain, m.PerOp, exec.Workers)
	if err != nil {
		return nil, err
	}
	curves := make([]*pareto.Curve, len(study))
	segments := make([]Segment, len(study))
	for i, sr := range study {
		curves[i] = sr.Curve
		segments[i] = Segment{
			Label:  sr.Label,
			Cuts:   sr.Segmentation.Cuts,
			Points: sr.Curve.Len(),
			Curve:  sr.Curve,
		}
	}
	best := pareto.MergeMin(curves...)
	best.AlgoMinBytes = m.Chain.FusedAlgoMinBytes()
	best.TotalOperandBytes = m.Chain.UnfusedAlgoMinBytes()
	return &Result{Curve: best, Evaluated: ts.Evaluated, Segments: segments}, nil
}
