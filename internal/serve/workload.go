package serve

import (
	"context"
	"fmt"

	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// Request is the body of POST /v1/curve: exactly one workload source
// (Einsum expression, GEMM shape, or fused chain), optional derivation
// options, and per-request execution knobs. Unknown fields are rejected
// so a typo degrades to a 400, never to a silently different derivation.
type Request struct {
	// Einsum is a workload in the expression syntax accepted by the
	// einsum package parser (the same strings the CLI accepts).
	Einsum string `json:"einsum,omitempty"`

	// GEMM is a shorthand for the M×K×N matrix-multiply workload.
	GEMM *GEMMSpec `json:"gemm,omitempty"`

	// Chain requests the tiled-fusion frontier of a chain of Einsums
	// (FFMT template sweep). Mutually exclusive with options and
	// multilevel, which are single-Einsum concepts.
	Chain *ChainSpec `json:"chain,omitempty"`

	// Segmentation requests the segmentation study of a chain of Einsums
	// (Sec. VII-B): the capacity-wise best curve over all 2^(n-1) cut
	// patterns, with per-segmentation curves for in-process runs. Like
	// chain, it is mutually exclusive with options and multilevel.
	Segmentation *SegmentationSpec `json:"segmentation,omitempty"`

	// MultiLevel switches a single-Einsum request from the two-level
	// bound to the three-level (L1/L2/DRAM) derivation; the response
	// curve is the DRAM frontier.
	MultiLevel *MultiLevelSpec `json:"multilevel,omitempty"`

	// Options are the result-affecting two-level bound options.
	Options OptionsSpec `json:"options,omitempty"`

	// TimeoutMS bounds this request's wall time in milliseconds. Zero
	// means the server default; values above the server maximum are
	// clamped to it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Shards, when > 1, runs the derivation as that many scheduled,
	// checkpointed shard jobs in the server's spool directory, making it
	// resumable across a server restart.
	Shards int `json:"shards,omitempty"`

	// NoCache skips the cache lookup (the fresh result still enters the
	// cache, and concurrent identical requests still deduplicate).
	NoCache bool `json:"no_cache,omitempty"`

	// AllowPartial, valid only with shards > 1, accepts a degraded merge
	// when shards fail permanently: instead of an error the response is a
	// 206 envelope annotated with the covered index fraction and the
	// missing shard list, and the spool is kept so a retry can finish the
	// job. Degraded results are never cached.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// GEMMSpec names an M×K×N matrix multiply.
type GEMMSpec struct {
	// Name labels the workload; empty means "gemm_MxKxN".
	Name string `json:"name,omitempty"`
	// M, K, N are the GEMM extents; all must be >= 1.
	M int64 `json:"m"`
	K int64 `json:"k"`
	N int64 `json:"n"`
}

// ChainSpec names a chain of producer-consumer Einsums — the shared
// chain-workload shape of the tiled-fusion and segmentation requests.
type ChainSpec struct {
	// Name labels the chain; empty means "chain".
	Name string `json:"name,omitempty"`
	// Einsums are the chain's operations in producer order, each in the
	// einsum expression syntax.
	Einsums []string `json:"einsums"`
}

// SegmentationSpec names a chain of producer-consumer Einsums for the
// segmentation study. It is the same shape as ChainSpec — the alias
// replaces a copy-pasted struct and parse loop.
type SegmentationSpec = ChainSpec

// chain parses and assembles the ChainSpec into a fusion.Chain; what
// clarifies the errors.
func (spec *ChainSpec) chain(what string) (*fusion.Chain, error) {
	if len(spec.Einsums) == 0 {
		return nil, fmt.Errorf("%s needs at least one einsum", what)
	}
	name := spec.Name
	if name == "" {
		name = "chain"
	}
	es := make([]*einsum.Einsum, len(spec.Einsums))
	for i, s := range spec.Einsums {
		e, err := einsum.Parse(s)
		if err != nil {
			return nil, fmt.Errorf("%s einsum %d: %w", what, i, err)
		}
		es[i] = e
	}
	return fusion.FromEinsums(name, es...)
}

// SegmentResult is one segmentation strategy's curve in the response
// envelope (in-process segmentation runs only; sharded runs return just
// the merged best curve). It is the workload package's Segment type, so
// an in-process run's output serializes into the envelope unchanged.
type SegmentResult = workload.Segment

// MultiLevelSpec selects the three-level derivation. It is the workload
// Spec's multilevel options, so the request field becomes the Spec's
// unchanged.
type MultiLevelSpec = workload.MultiLevelOptions

// OptionsSpec carries the result-affecting two-level bound options. It is
// the workload Spec's bound options; worker counts are a server concern
// (results are worker-agnostic) and deliberately absent.
type OptionsSpec = workload.BoundOptions

// deriveOut is what a derivation produces: the frontier and the number of
// mappings evaluated, plus — depending on the path — per-segmentation
// results (in-process segmentation studies) and the coverage annotation of
// a degraded shard merge (allow_partial requests whose shards failed).
type deriveOut struct {
	curve     *pareto.Curve
	evaluated int64
	segments  []SegmentResult
	degraded  *shard.Degraded
}

// deriveFn runs a derivation to completion under ctx.
type deriveFn func(ctx context.Context) (deriveOut, error)

// derivation is a validated, canonicalized unit of work: stable identity
// (key, digest) for caching and single-flight, the in-process derive
// function (run), and the shard-job constructor for the spooled path
// (mkJob). Identity uses the same canonical encodings as the compiled
// shard jobs, so a spooled derivation interrupted by one server process is
// resumed — not restarted — by the next.
type derivation struct {
	kind   shard.Kind
	label  string
	key    string
	digest string
	exec   workload.Exec

	// spec is the request's workload spec; mspec is its materialized
	// form (filled by prepare; identical to spec when nothing needed
	// deriving). The spooled path persists mspec as the spool's
	// spec.json, which is why mkJob and run read mspec, never spec.
	spec  *workload.Spec
	mspec *workload.Spec
}

// buildDerivation validates the request's workload and compiles it into
// a derivation. Errors are client errors (400 invalid_workload).
func buildDerivation(req *Request, workers int) (*derivation, error) {
	spec, err := specFromRequest(req)
	if err != nil {
		return nil, err
	}
	return derivationFromSpec(spec, workers)
}

// specFromRequest translates the HTTP request into a workload Spec — the
// only per-source code; every derivation path below this point goes
// through the Spec's methods.
func specFromRequest(req *Request) (*workload.Spec, error) {
	sources := 0
	if req.Einsum != "" {
		sources++
	}
	if req.GEMM != nil {
		sources++
	}
	if req.Chain != nil {
		sources++
	}
	if req.Segmentation != nil {
		sources++
	}
	if sources != 1 {
		return nil, fmt.Errorf("exactly one of einsum, gemm, chain, segmentation required")
	}

	if req.Chain != nil || req.Segmentation != nil {
		if req.MultiLevel != nil {
			return nil, fmt.Errorf("multilevel applies to single-Einsum workloads, not chains")
		}
		if req.Options != (OptionsSpec{}) {
			return nil, fmt.Errorf("options apply to single-Einsum bound derivations, not chains")
		}
		if req.Chain != nil {
			c, err := req.Chain.chain("chain")
			if err != nil {
				return nil, err
			}
			return workload.NewFusionTiled(c), nil
		}
		c, err := req.Segmentation.chain("segmentation")
		if err != nil {
			return nil, err
		}
		return workload.NewSegmentation(c, nil), nil
	}

	var e *einsum.Einsum
	if req.Einsum != "" {
		var err error
		e, err = einsum.Parse(req.Einsum)
		if err != nil {
			return nil, err
		}
	} else {
		g := req.GEMM
		// einsum.GEMM panics on invalid shapes (it is a literal builder),
		// so reject them here where they are a client error.
		if g.M < 1 || g.K < 1 || g.N < 1 {
			return nil, fmt.Errorf("gemm shape %dx%dx%d, want all extents >= 1", g.M, g.K, g.N)
		}
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("gemm_%dx%dx%d", g.M, g.K, g.N)
		}
		e = einsum.GEMM(name, g.M, g.K, g.N)
	}

	if req.MultiLevel != nil {
		if req.Options != (OptionsSpec{}) {
			return nil, fmt.Errorf("options apply to the two-level bound, not multilevel derivations")
		}
		return &workload.Spec{Kind: shard.KindMultiLevel, Einsum: e, MultiLevel: req.MultiLevel}, nil
	}
	// Encode drops an all-default options block, so the Spec stays
	// canonical.
	return &workload.Spec{Kind: shard.KindBound, Einsum: e, Bound: &req.Options}, nil
}

// derivationFromSpec compiles a Spec into a derivation. Its cache
// identity comes from store.Identity — the shared rule that keys the
// memory LRU, the durable curve store, the single flight, and the spool
// directory, including segmentation's documented chain-only special case;
// it also validates the Spec. Pinned by the cross-layer identity test in
// identity_test.go.
func derivationFromSpec(spec *workload.Spec, workers int) (*derivation, error) {
	key, digest, err := store.Identity(spec)
	if err != nil {
		return nil, err
	}
	return &derivation{
		kind:   spec.Kind,
		label:  spec.Describe(),
		key:    key,
		digest: digest,
		exec:   workload.Exec{Workers: workers},
		spec:   spec,
		mspec:  spec,
	}, nil
}

// prepare materializes spec into mspec (Spec.Materialize derives inputs
// such as the segmentation study's per-op curves, and returns an already
// materialized Spec unchanged). The flight calls it before run or mkJob,
// after admission and under panic containment, so input derivation is
// cancellable and never blocks the request handler.
func (d *derivation) prepare(ctx context.Context) error {
	m, err := d.spec.Materialize(ctx, d.exec)
	if err != nil {
		return err
	}
	d.mspec = m
	return nil
}

// run derives the materialized Spec's full space in process.
func (d *derivation) run(ctx context.Context) (deriveOut, error) {
	r, err := d.mspec.Run(ctx, d.exec)
	if err != nil {
		return deriveOut{}, err
	}
	return deriveOut{curve: r.Curve, evaluated: r.Evaluated, segments: r.Segments}, nil
}

// mkJob compiles one shard plan slice of the materialized Spec.
func (d *derivation) mkJob(plan shard.Plan) (shard.Job, error) {
	return d.mspec.Compile(plan, d.exec)
}
