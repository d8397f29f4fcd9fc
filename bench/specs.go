package bench

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/llm"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/workload"
)

// namedSpec is one fixed derivation of a workload. ID keys the golden
// file, as "<workload>/<name>".
type namedSpec struct {
	ID   string
	Spec *workload.Spec
	// Cheap marks the specs a smoke run keeps.
	Cheap bool
}

// fig12Convs are the Fig. 12 convolution configurations (C=N=64,
// P=Q=16): filter size, stride and dilation sweeps.
var fig12Convs = []struct {
	name string
	cfg  einsum.ConvConfig
}{
	{"R1S1", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 1, S: 1}},
	{"R3S3", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3}},
	{"R5S5", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 5, S: 5}},
	{"R7S7", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 7, S: 7}},
	{"R3S3-T2", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3, T: 2}},
	{"R3S3-D2", einsum.ConvConfig{P: 16, Q: 16, N: 64, C: 64, R: 3, S: 3, D: 2}},
}

// deriveConvSpecs are the six Fig. 12 convolutions and the six Fig. 13
// BMM head counts (M=N=4096, K=4096/H), all perfect-factor bound specs.
func deriveConvSpecs() []namedSpec {
	var out []namedSpec
	for _, c := range fig12Convs {
		out = append(out, namedSpec{"derive-conv/conv-" + c.name,
			workload.NewBound(einsum.Conv2D(c.name, c.cfg), bound.Options{}), c.name == "R1S1"})
	}
	for _, h := range []int64{1, 2, 4, 8, 16, 32} {
		name := fmt.Sprintf("h%d", h)
		out = append(out, namedSpec{"derive-conv/bmm-" + name,
			workload.NewBound(einsum.BMM(name, h, 4096, 4096/h, 4096), bound.Options{}), h <= 2})
	}
	return out
}

// deriveMixedSpecs are three-rank or chain derivations whose cost sits in
// pareto, multilevel and fusion rather than in loop-order expansion.
func deriveMixedSpecs() []namedSpec {
	g4k := einsum.GEMM("gemm4k", 4096, 4096, 4096)
	chain := llm.GPT3_6_7B().SixEinsumChain()
	return []namedSpec{
		{"derive-mixed/gemm4k-imperfect48", workload.NewBound(g4k, bound.Options{ImperfectExtra: 48}), false},
		{"derive-mixed/gemm4k-spills", workload.NewBound(g4k, bound.Options{ChargeSpills: true}), true},
		{"derive-mixed/multilevel-512-l1-64k", workload.NewMultiLevel(einsum.GEMM("gemm512", 512, 512, 512), 64<<10), false},
		{"derive-mixed/gpt3-tiled", workload.NewFusionTiled(chain), true},
		{"derive-mixed/gpt3-segmentation", workload.NewSegmentation(chain, nil), false},
	}
}

// fleetRequests is shard-fleet's rotation, as the requests a client
// sends: a 4k GEMM with 24 imperfect tile sizes, the Fig. 12 3x3
// convolution, the Fig. 13 h32 BMM, and GPT-3-6.7b's GEMM-only
// Final_proj -> mm_0 -> mm_1 tiled-fusion chain (the served chain form
// takes GEMMs only).
func fleetRequests() []namedRequest {
	g := llm.GPT3_6_7B()
	return []namedRequest{
		{"shard-fleet/gemm4k-imperfect24", serve.Request{
			GEMM: &serve.GEMMSpec{M: 4096, K: 4096, N: 4096}, Options: serve.OptionsSpec{ImperfectExtra: 24}}, true},
		{"shard-fleet/conv-R3S3", serve.Request{
			Einsum: "B[p,q,n] = A[p+r,q+s,c] * W[c,n,r,s] {P=16,Q=16,N=64,C=64,R=3,S=3}"}, false},
		{"shard-fleet/bmm-h32", serve.Request{
			Einsum: "B[h,m,n] = A[h,m,k] * W[h,k,n] {H=32,M=4096,K=128,N=4096}"}, false},
		{"shard-fleet/gpt3-ffn-chain", serve.Request{Chain: &serve.ChainSpec{
			Name: "gpt3-ffn", Einsums: []string{g.FinalProj().String(), g.MM0().String(), g.MM1().String()}}}, true},
	}
}

// namedRequest is one fixed request of a served workload.
type namedRequest struct {
	ID    string
	Req   serve.Request
	Cheap bool
}

// specFor builds the workload Spec the server derives for req, mirroring
// the server's request translation (internal/serve specFromRequest) for
// the request shapes the benchmark sends. The response digest is checked
// against this Spec's identity, so a drift between the two is caught.
func specFor(req *serve.Request) (*workload.Spec, error) {
	switch {
	case req.Chain != nil:
		es := make([]*einsum.Einsum, len(req.Chain.Einsums))
		for i, s := range req.Chain.Einsums {
			e, err := einsum.Parse(s)
			if err != nil {
				return nil, err
			}
			es[i] = e
		}
		name := req.Chain.Name
		if name == "" {
			name = "chain"
		}
		c, err := fusion.FromEinsums(name, es...)
		if err != nil {
			return nil, err
		}
		return workload.NewFusionTiled(c), nil
	case req.GEMM != nil:
		g := req.GEMM
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("gemm_%dx%dx%d", g.M, g.K, g.N)
		}
		return workload.NewBound(einsum.GEMM(name, g.M, g.K, g.N),
			bound.Options{ImperfectExtra: req.Options.ImperfectExtra, ChargeSpills: req.Options.ChargeSpills}), nil
	case req.Einsum != "":
		e, err := einsum.Parse(req.Einsum)
		if err != nil {
			return nil, err
		}
		return workload.NewBound(e, bound.Options{ImperfectExtra: req.Options.ImperfectExtra, ChargeSpills: req.Options.ChargeSpills}), nil
	}
	return nil, fmt.Errorf("bench: request has no workload")
}

// fleetSpecs returns the rotation as named Specs, for the golden file.
func fleetSpecs() ([]namedSpec, error) {
	var out []namedSpec
	for _, r := range fleetRequests() {
		s, err := specFor(&r.Req)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		out = append(out, namedSpec{r.ID, s, r.Cheap})
	}
	return out, nil
}

// specByID finds a fixed derive spec by its golden ID.
func specByID(id string) (namedSpec, error) {
	for _, s := range append(deriveConvSpecs(), deriveMixedSpecs()...) {
		if s.ID == id {
			return s, nil
		}
	}
	return namedSpec{}, fmt.Errorf("bench: no fixed spec %q", id)
}

// cheapOnly keeps the specs a smoke run derives.
func cheapOnly(specs []namedSpec, short bool) []namedSpec {
	if !short {
		return specs
	}
	var out []namedSpec
	for _, s := range specs {
		if s.Cheap {
			out = append(out, s)
		}
	}
	return out
}

// goldenJSON maps every fixed spec ID to the sha256 of its curve's
// canonical encoding. Regenerate with orobench -write-golden.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// errGolden marks a set-up derivation whose curve is not the golden one;
// the run cannot check served curves against a wrong reference.
var errGolden = errors.New("curve does not match the golden table")

// Golden is a table of expected curve digests.
type Golden map[string]string

// LoadGolden parses the embedded golden file.
func LoadGolden() (Golden, error) {
	var g Golden
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("bench: golden file: %w", err)
	}
	return g, nil
}

// CurveDigest is the golden digest of a curve: the sha256 of
// pareto.Curve.Canonical().
func CurveDigest(c *pareto.Curve) string {
	sum := sha256.Sum256([]byte(c.Canonical()))
	return hex.EncodeToString(sum[:])
}

// Check reports whether c is the golden curve of id. An id missing from
// the table never matches.
func (g Golden) Check(id string, c *pareto.Curve) bool {
	want, ok := g[id]
	return ok && c != nil && want == CurveDigest(c)
}

// WriteGolden derives every fixed spec in-process and writes the golden
// table to path.
func WriteGolden(ctx context.Context, path string) error {
	fleet, err := fleetSpecs()
	if err != nil {
		return err
	}
	g := Golden{}
	for _, set := range [][]namedSpec{deriveConvSpecs(), deriveMixedSpecs(), fleet} {
		for _, s := range set {
			res, err := s.Spec.Run(ctx, workload.Exec{})
			if err != nil {
				return fmt.Errorf("bench: deriving %s: %w", s.ID, err)
			}
			g[s.ID] = CurveDigest(res.Curve)
		}
	}
	data, err := json.MarshalIndent(g, "", "  ") // map keys marshal sorted
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
