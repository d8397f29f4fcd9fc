package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/llm"
	"repro/internal/pareto"
	"repro/internal/shard"
)

var update = flag.Bool("update", false, "rewrite golden spec files")

func testGEMM() *einsum.Einsum { return einsum.GEMM("gemm_64", 64, 64, 64) }

func testSmallGEMM() *einsum.Einsum { return einsum.GEMM("gemm_16", 16, 16, 16) }

func testChain(t *testing.T) *fusion.Chain {
	t.Helper()
	c, err := fusion.NewChain("ffn", 64,
		fusion.GEMMOp("mm_0", 64, 32, 48),
		fusion.GEMMOp("mm_1", 64, 48, 16))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func segChain(t *testing.T) *fusion.Chain {
	t.Helper()
	c, err := fusion.NewChain("mlp5", 16,
		fusion.GEMMOp("g0", 16, 4, 8),
		fusion.GEMMOp("g1", 16, 8, 8),
		fusion.GEMMOp("g2", 16, 8, 4),
		fusion.GEMMOp("g3", 16, 4, 8),
		fusion.GEMMOp("g4", 16, 8, 4))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func curveBytes(t *testing.T, c *pareto.Curve) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// goldenSpecs are the four kinds' reference Specs; the segmentation one
// is deliberately unmaterialized (the schema clients author by hand).
func goldenSpecs(t *testing.T) map[string]*Spec {
	t.Helper()
	return map[string]*Spec{
		"bound":        NewBound(testGEMM(), bound.Options{ImperfectExtra: 2}),
		"multilevel":   NewMultiLevel(testSmallGEMM(), 1024),
		"fusion-tiled": NewFusionTiled(testChain(t)),
		"segmentation": NewSegmentation(segChain(t), nil),
	}
}

// TestSpecGoldenRoundTrip pins the canonical encoding of all four kinds
// byte for byte: Encode matches the checked-in golden file, Decode of
// the golden re-encodes to the same bytes, and a decoded Spec derives
// the same digests as the original.
func TestSpecGoldenRoundTrip(t *testing.T) {
	for name, spec := range goldenSpecs(t) {
		t.Run(name, func(t *testing.T) {
			enc, err := spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "spec_"+name+".json")
			if *update {
				if err := os.WriteFile(path, append(append([]byte{}, enc...), '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			golden = bytes.TrimSuffix(golden, []byte("\n"))
			if !bytes.Equal(enc, golden) {
				t.Fatalf("canonical encoding drifted from golden\n got %s\nwant %s", enc, golden)
			}
			decoded, err := Decode(golden)
			if err != nil {
				t.Fatal(err)
			}
			re, err := decoded.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(re, golden) {
				t.Fatalf("decode/encode not byte-stable\n got %s\nwant %s", re, golden)
			}
		})
	}
}

// TestDecodeRejections pins the strictness contract: unknown kinds,
// unknown fields, kind-mismatched fields, trailing data, and structural
// garbage are all errors.
func TestDecodeRejections(t *testing.T) {
	valid, err := NewFusionTiled(testChain(t)).Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"unknown kind":   `{"kind":"frobnicate"}`,
		"unknown field":  strings.Replace(string(valid), `"kind"`, `"surprise":1,"kind"`, 1),
		"trailing data":  string(valid) + `{"kind":"bound"}`,
		"missing chain":  `{"kind":"fusion-tiled"}`,
		"cross-kind":     strings.Replace(string(valid), `"kind":"fusion-tiled"`, `"kind":"fusion-tiled","multilevel":{"l1_cap_bytes":1}`, 1),
		"not an object":  `[1,2,3]`,
		"torn json":      string(valid[:len(valid)/2]),
		"bound w/ chain": strings.Replace(string(valid), `"kind":"fusion-tiled"`, `"kind":"bound"`, 1),
		"negative halo":  strings.Replace(string(valid), `"rows_per_inst":`, `"halo_rows":-1,"rows_per_inst":`, 1),
	}
	for name, data := range cases {
		if _, err := Decode([]byte(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := Decode(valid); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

// frozenIdentity is the identity each golden spec in testdata compiles
// to: the manifest label, workload and options digests, and index-space
// size (the segmentation entry is its materialized form). The values were
// recorded from the per-kind job builders the kinds table replaced; they
// keep existing stores, spools and partial frontiers addressable, so they
// change only with a deliberate format break.
var frozenIdentity = map[string]struct {
	label, workload, options string
	items                    int64
}{
	"bound": {
		"B[m,n] = A[m,k] * W[k,n] {M=64 K=64 N=64}",
		"ea7fc2c34eaa7acb055ceaa9aef132b5a62aaf2861e8b458a571e3358b2af806",
		"17192c6edc006639ae47943f84e449a42c0592a2c65381923ea4001775a15025",
		343,
	},
	"fusion-tiled": {
		"ffn: 2 ops over M=64",
		"16451e127e7a69e1b433b96716a21a950edf1af270ce4a8a38461fe0a2fb1261",
		"a49f2f77493c82c0390490037309acf8c7b3a22a8e724654aed154e0111a2fe6",
		280,
	},
	"multilevel": {
		"B[m,n] = A[m,k] * W[k,n] {M=16 K=16 N=16} three-level L1=1024B",
		"fb8cfb41d4530a51c9ebb1554fc60df01e38ea2490e03286caec74af86f43044",
		"106a129e90c79143c1d67f02ba91caa7ba42dcd71f28f0a5fdb5e04c1e0b6d51",
		3375,
	},
	"segmentation": {
		"mlp5: 5-op segmentation study over M=16",
		"f16711c01587fa7651a2cfa4dc08b688b13ccfa14095e3d08560a01614decdeb",
		"6813c110c83037a52d5a3af87a34a6870e540d390097df4e93ca1726f7fb8a09",
		16,
	},
}

// TestDigestParityWithLegacyBuilders pins every kind's Spec identity to
// the frozen values the legacy job builders produced: the decoded golden
// spec describes, digests, sizes and compiles to exactly frozenIdentity.
// The unmaterialized segmentation golden keeps its label and size but
// refuses to digest until Materialize has derived its per-op curves.
func TestDigestParityWithLegacyBuilders(t *testing.T) {
	for name, want := range frozenIdentity {
		t.Run(name, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("testdata", "spec_"+name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if name == "segmentation" {
				if _, _, err := spec.Digests(); !errors.Is(err, ErrUnmaterialized) {
					t.Fatalf("unmaterialized digest error = %v, want ErrUnmaterialized", err)
				}
				if got := spec.Describe(); got != want.label {
					t.Fatalf("unmaterialized label %q, want %q", got, want.label)
				}
				if spec, err = spec.Materialize(context.Background(), Exec{Workers: 1}); err != nil {
					t.Fatal(err)
				}
			}
			if got := spec.Describe(); got != want.label {
				t.Fatalf("label %q, want %q", got, want.label)
			}
			space, err := spec.Space()
			if err != nil {
				t.Fatal(err)
			}
			wd, od, err := spec.Digests()
			if err != nil {
				t.Fatal(err)
			}
			if wd != want.workload || od != want.options || space != want.items {
				t.Fatalf("identity (%s, %s, %d), want (%s, %s, %d)", wd, od, space, want.workload, want.options, want.items)
			}
			job, err := spec.Compile(shard.Plan{Index: 0, Count: 2}, Exec{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			if string(job.Kind) != name || job.Workload != want.label || job.WorkloadDigest != want.workload ||
				job.OptionsDigest != want.options || job.Items != want.items {
				t.Fatalf("compiled job identity (%s, %q, %.12s…, %.12s…, %d) differs from frozen identity",
					job.Kind, job.Workload, job.WorkloadDigest, job.OptionsDigest, job.Items)
			}
			if len(job.Spec) == 0 {
				t.Fatal("compiled job carries no embedded spec")
			}
		})
	}
}

// runSpecShards compiles every shard of an n-way plan from a freshly
// decoded copy of enc — the fleet-worker situation: nothing shared with
// the authoring context — and runs each through the file-backed path.
func runSpecShards(t *testing.T, dir string, enc []byte, n int) []string {
	t.Helper()
	paths := make([]string, n)
	for k := 0; k < n; k++ {
		decoded, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		job, err := decoded.Compile(shard.Plan{Index: k, Count: n}, Exec{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", k+1, n))
		if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: paths[k], CheckpointEvery: 3}); err != nil {
			t.Fatalf("shard %d/%d: %v", k+1, n, err)
		}
	}
	return paths
}

// mergeFiles reads the named partial-frontier files and merges them.
func mergeFiles(paths ...string) (*pareto.Curve, error) {
	partials := make([]*shard.Partial, len(paths))
	for i, path := range paths {
		p, err := shard.ReadPartial(nil, path)
		if err != nil {
			return nil, err
		}
		partials[i] = p
	}
	return shard.Merge(partials...)
}

// TestSpecShardingParity pins sharding parity for all four kinds: a Spec
// serialized to JSON, decoded in a fresh context and compiled per shard
// yields sharded merges byte-identical to the Spec's in-process Run, for
// N ∈ {2, 4}.
func TestSpecShardingParity(t *testing.T) {
	sc := segChain(t)
	kinds := []struct {
		name string
		spec *Spec
	}{
		{"bound", NewBound(testGEMM(), bound.Options{ImperfectExtra: 2})},
		{"multilevel", NewMultiLevel(testSmallGEMM(), 1024)},
		{"fusion-tiled", NewFusionTiled(testChain(t))},
		{"segmentation", NewSegmentation(sc, sc.PerOpCurves(bound.Options{Workers: 1}))},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			enc, err := kind.spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			inProc, err := kind.spec.Run(context.Background(), Exec{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := curveBytes(t, inProc.Curve)
			for _, n := range []int{2, 4} {
				paths := runSpecShards(t, t.TempDir(), enc, n)
				merged, err := mergeFiles(paths...)
				if err != nil {
					t.Fatalf("N=%d: %v", n, err)
				}
				if got := curveBytes(t, merged); got != want {
					t.Fatalf("N=%d: spec-compiled merge differs from in-process run\n got %s\nwant %s", n, got, want)
				}
			}
		})
	}
}

// TestKillAndResumeFromManifestSpecAlone pins the fleet-resume
// criterion: a shard killed mid-run is finished by a "process" that has
// only the partial-frontier file — the job is rebuilt via
// JobFromManifest from the manifest's embedded Spec, with no access to
// the original Spec, chain, or per-op curves. Segmentation is the
// demanding case (its per-op input curves travel inside the Spec);
// bound covers the plain path.
func TestKillAndResumeFromManifestSpecAlone(t *testing.T) {
	sc := segChain(t)
	perOp := sc.PerOpCurves(bound.Options{Workers: 1})
	kinds := []struct {
		name string
		spec *Spec
	}{
		{"bound", NewBound(testSmallGEMM(), bound.Options{})},
		{"segmentation", NewSegmentation(sc, perOp)},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			const n = 4
			enc, err := kind.spec.Encode()
			if err != nil {
				t.Fatal(err)
			}
			inProc, err := kind.spec.Run(context.Background(), Exec{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			want := curveBytes(t, inProc.Curve)

			dir := t.TempDir()
			paths := make([]string, n)
			for k := 0; k < n; k++ {
				decoded, err := Decode(enc)
				if err != nil {
					t.Fatal(err)
				}
				job, err := decoded.Compile(shard.Plan{Index: k, Count: n}, Exec{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", k+1, n))
				if k != 1 {
					if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: paths[k], CheckpointEvery: 1}); err != nil {
						t.Fatal(err)
					}
					continue
				}

				// Kill shard 2 after its first flush...
				ctx, cancel := context.WithCancel(context.Background())
				_, _, err = shard.Run(ctx, job, shard.RunOptions{
					Path:            paths[k],
					CheckpointEvery: 1,
					OnCheckpoint:    func(shard.Manifest) { cancel() },
				})
				cancel()
				if err == nil {
					t.Fatal("killed run reported success")
				}
				killed, rerr := shard.ReadPartial(nil, paths[k])
				if rerr != nil {
					t.Fatalf("no resumable checkpoint after kill: %v", rerr)
				}
				if killed.Manifest.Complete() {
					t.Fatal("kill point was after shard completion; shrink the space or CheckpointEvery")
				}

				// ...and finish it from the manifest alone.
				rebuilt, spec, err := JobFromManifest(&killed.Manifest, Exec{Workers: 1})
				if err != nil {
					t.Fatal(err)
				}
				if spec.Kind != kind.spec.Kind {
					t.Fatalf("manifest spec kind %q, want %q", spec.Kind, kind.spec.Kind)
				}
				_, stats, err := shard.Run(context.Background(), rebuilt, shard.RunOptions{Path: paths[k], CheckpointEvery: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !stats.Resumed || stats.ResumedFrom != killed.Manifest.CompletedThrough {
					t.Fatalf("manifest-rebuilt job did not resume at checkpoint: stats %+v, checkpoint at %d",
						stats, killed.Manifest.CompletedThrough)
				}
			}
			merged, err := mergeFiles(paths...)
			if err != nil {
				t.Fatal(err)
			}
			if got := curveBytes(t, merged); got != want {
				t.Fatalf("manifest-resumed merge differs from in-process run\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestJobFromManifestGuards pins the failure modes: legacy manifests
// without a Spec are ErrNoSpec, and a manifest whose digests disagree
// with its embedded Spec is rejected.
func TestJobFromManifestGuards(t *testing.T) {
	spec := NewBound(testSmallGEMM(), bound.Options{})
	job, err := spec.Compile(shard.Plan{Index: 0, Count: 2}, Exec{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := job.Plan.Slice(job.Items)
	m := shard.Manifest{
		FormatVersion:    shard.FormatVersion,
		Engine:           shard.Engine,
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
	if _, _, err := JobFromManifest(&m, Exec{}); err != nil {
		t.Fatalf("well-formed manifest rejected: %v", err)
	}

	legacy := m
	legacy.FormatVersion = shard.MinFormatVersion
	legacy.Spec = nil
	if _, _, err := JobFromManifest(&legacy, Exec{}); !errors.Is(err, ErrNoSpec) {
		t.Fatalf("legacy manifest error = %v, want ErrNoSpec", err)
	}

	tampered := m
	tampered.WorkloadDigest = shard.Digest("someone else's workload")
	if _, _, err := JobFromManifest(&tampered, Exec{}); err == nil {
		t.Fatal("digest-mismatched manifest accepted")
	}

	wrongKind := m
	wrongKind.Kind = shard.KindFusionTiled
	if _, _, err := JobFromManifest(&wrongKind, Exec{}); err == nil {
		t.Fatal("kind-mismatched manifest accepted")
	}
}

// TestMaterializeSegmentation pins the materialization contract: the
// per-op curves Materialize derives equal the chain's direct
// PerOpCurves, an already materialized Spec is returned as-is, and an
// unmaterialized Spec refuses to digest or compile with
// ErrUnmaterialized.
func TestMaterializeSegmentation(t *testing.T) {
	sc := segChain(t)
	bare := NewSegmentation(sc, nil)
	if _, _, err := bare.Digests(); !errors.Is(err, ErrUnmaterialized) {
		t.Fatalf("unmaterialized digest error = %v, want ErrUnmaterialized", err)
	}
	if _, err := bare.Compile(shard.Plan{Index: 0, Count: 1}, Exec{}); !errors.Is(err, ErrUnmaterialized) {
		t.Fatalf("unmaterialized compile error = %v, want ErrUnmaterialized", err)
	}

	mat, err := bare.Materialize(context.Background(), Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := sc.PerOpCurves(bound.Options{Workers: 1})
	if len(mat.PerOp) != len(want) {
		t.Fatalf("materialized %d per-op curves, want %d", len(mat.PerOp), len(want))
	}
	for i := range want {
		if curveBytes(t, mat.PerOp[i]) != curveBytes(t, want[i]) {
			t.Fatalf("materialized per-op curve %d differs from direct derivation", i)
		}
	}
	if bare.PerOp != nil {
		t.Fatal("Materialize mutated its input spec")
	}
	again, err := mat.Materialize(context.Background(), Exec{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if again != mat {
		t.Fatal("materializing a materialized spec did not return it unchanged")
	}
}

// TestMaterializeDerivesEqualOpsOnce: ops whose Einsums differ only in
// name share one per-op derivation, and the shared curve is the one each
// op derives on its own.
func TestMaterializeDerivesEqualOpsOnce(t *testing.T) {
	for _, tc := range []struct {
		chain  *fusion.Chain
		shared [][2]int // op pairs that share a curve; all others are distinct
	}{
		{segChain(t), [][2]int{{0, 3}, {2, 4}}},
		{llm.GPT3_6_7B().SixEinsumChain(), [][2]int{{0, 3}}}, // Q_proj, Final_proj
	} {
		mat, err := NewSegmentation(tc.chain, nil).Materialize(context.Background(), Exec{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want := tc.chain.PerOpCurves(bound.Options{Workers: 1})
		for i := range want {
			if curveBytes(t, mat.PerOp[i]) != curveBytes(t, want[i]) {
				t.Fatalf("%s: per-op curve %d differs from its own derivation", tc.chain.Name, i)
			}
			for j := i + 1; j < len(want); j++ {
				shares := mat.PerOp[i] == mat.PerOp[j]
				if wantShared := slices.Contains(tc.shared, [2]int{i, j}); shares != wantShared {
					t.Fatalf("%s: ops %d and %d share a curve: %v, want %v", tc.chain.Name, i, j, shares, wantShared)
				}
			}
		}
	}
}

// TestRegistry pins the unknown-kind contract: a Spec whose kind is not
// in the kinds table fails every entry point with an error naming both
// the kind and every known kind.
func TestRegistry(t *testing.T) {
	s := &Spec{Kind: "frobnicate"}
	_, decodeErr := Decode([]byte(`{"kind":"frobnicate"}`))
	_, _, digestErr := s.Digests()
	_, _, cacheErr := s.CacheDigests()
	_, spaceErr := s.Space()
	_, compileErr := s.Compile(shard.Plan{Index: 0, Count: 1}, Exec{})
	_, runErr := s.Run(context.Background(), Exec{})
	_, matErr := s.Materialize(context.Background(), Exec{})
	for _, err := range []error{decodeErr, s.Validate(), digestErr, cacheErr, spaceErr, compileErr, runErr, matErr} {
		if err == nil {
			t.Fatal("unknown kind accepted")
		}
		for _, k := range []shard.Kind{"frobnicate", shard.KindBound, shard.KindFusionTiled, shard.KindMultiLevel, shard.KindSegmentation} {
			if !strings.Contains(err.Error(), string(k)) {
				t.Fatalf("error %q does not name %q", err, k)
			}
		}
	}
	if got := s.Describe(); !strings.Contains(got, "frobnicate") {
		t.Fatalf("Describe of an unknown kind = %q", got)
	}
}

// TestUnvalidatedSpecsError pins that every Spec method validates before
// it reads a field: Specs missing the fields their kind needs, or
// carrying fields of another kind, return errors (and Describe renders
// one) instead of dereferencing nil.
func TestUnvalidatedSpecsError(t *testing.T) {
	specs := map[string]*Spec{
		"multilevel without options": {Kind: shard.KindMultiLevel, Einsum: testSmallGEMM()},
		"multilevel zero L1":         {Kind: shard.KindMultiLevel, Einsum: testSmallGEMM(), MultiLevel: &MultiLevelOptions{}},
		"bound without einsum":       {Kind: shard.KindBound},
		"bound with chain":           {Kind: shard.KindBound, Chain: testChain(t)},
		"fusion-tiled without chain": {Kind: shard.KindFusionTiled},
		"segmentation without chain": {Kind: shard.KindSegmentation},
		"segmentation short per-op":  {Kind: shard.KindSegmentation, Chain: segChain(t), PerOp: []*pareto.Curve{}},
	}
	for name, s := range specs {
		t.Run(name, func(t *testing.T) {
			_, _, digestErr := s.Digests()
			_, _, cacheErr := s.CacheDigests()
			_, spaceErr := s.Space()
			_, compileErr := s.Compile(shard.Plan{Index: 0, Count: 1}, Exec{})
			_, runErr := s.Run(context.Background(), Exec{})
			_, matErr := s.Materialize(context.Background(), Exec{})
			_, encErr := s.Encode()
			for i, err := range []error{s.Validate(), digestErr, cacheErr, spaceErr, compileErr, runErr, matErr, encErr} {
				if err == nil {
					t.Fatalf("entry point %d accepted the spec", i)
				}
			}
			if got := s.Describe(); !strings.HasPrefix(got, "<invalid spec: ") {
				t.Fatalf("Describe = %q, want an invalid-spec rendering", got)
			}
		})
	}
}

// FuzzSpecDecode fuzzes the Spec decoder every fleet worker, spool and
// resumed manifest runs on untrusted bytes: an accepted spec must encode
// to a canonical form that decodes and re-encodes to the same bytes, its
// count ceiling must fit an int64, and Describe, the digests and Space
// must not panic on it.
func FuzzSpecDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("testdata", "spec_*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no seed specs: %v", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		enc, err := s.Encode()
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding %s does not decode: %v", enc, err)
		}
		re, err := again.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, re) {
			t.Fatalf("encoding is not canonical\n got %s\nwant %s", re, enc)
		}
		s.Describe()
		if _, _, err := s.Digests(); err != nil && !errors.Is(err, ErrUnmaterialized) {
			t.Fatalf("accepted spec does not digest: %v", err)
		}
		if _, _, err := s.CacheDigests(); err != nil {
			t.Fatalf("accepted spec has no cache identity: %v", err)
		}
		k, err := lookup(s.Kind)
		if err != nil {
			t.Fatal(err)
		}
		if c := k.ceiling(s); !c.ok || c.n < 1 {
			t.Fatalf("accepted spec's count ceiling %d does not fit (ok=%v)", c.n, c.ok)
		}
		s.Space()
	})
}
