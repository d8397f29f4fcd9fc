package serve

import (
	"context"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestServeIdentityPinnedToShardJobDigests is the cross-layer identity
// contract: for every kind except segmentation, the serve-layer cache
// key, flight key, and spool digest are built from exactly the digests
// a directly compiled Spec stamps into partial-frontier manifests — so a
// spool written by one layer is always found by the other. Segmentation
// is the one documented divergence (asserted by the companion test
// below): its serve identity hashes only the chain, because the per-op
// input curves that the shard digest includes are derived inside the
// flight, after the identity must already exist.
func TestServeIdentityPinnedToShardJobDigests(t *testing.T) {
	plan := shard.Plan{Index: 0, Count: 1}
	cases := []struct {
		name string
		req  Request
		job  func(t *testing.T) shard.Job
	}{
		{
			name: "bound with options",
			req: Request{
				GEMM:    &GEMMSpec{M: 16, K: 12, N: 8},
				Options: OptionsSpec{ImperfectExtra: 1},
			},
			job: func(t *testing.T) shard.Job {
				e := einsum.GEMM("gemm_16x12x8", 16, 12, 8)
				j, err := workload.NewBound(e, bound.Options{ImperfectExtra: 1}).Compile(plan, workload.Exec{})
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
		},
		{
			name: "multilevel",
			req: Request{
				GEMM:       &GEMMSpec{M: 16, K: 12, N: 8},
				MultiLevel: &MultiLevelSpec{L1CapBytes: 512},
			},
			job: func(t *testing.T) shard.Job {
				e := einsum.GEMM("gemm_16x12x8", 16, 12, 8)
				j, err := workload.NewMultiLevel(e, 512).Compile(plan, workload.Exec{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
		},
		{
			name: "fusion-tiled",
			req: Request{
				Chain: &ChainSpec{Einsums: segEinsums},
			},
			job: func(t *testing.T) shard.Job {
				c := segTestChain(t, segEinsums)
				j, err := workload.NewFusionTiled(c).Compile(plan, workload.Exec{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				return j
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := buildDerivation(&tc.req, 2)
			if err != nil {
				t.Fatal(err)
			}
			job := tc.job(t)
			wantKey := string(job.Kind) + "|" + job.WorkloadDigest + "|" + job.OptionsDigest
			if d.key != wantKey {
				t.Fatalf("serve key %q, shard job digests give %q", d.key, wantKey)
			}
			if d.digest != shard.Digest(wantKey) {
				t.Fatalf("serve digest %q, want digest of the shard-job key", d.digest)
			}
			// The job the derivation itself compiles carries the same
			// identity — the spooled path and the manifest agree too.
			cj, err := d.mkJob(plan)
			if err != nil {
				t.Fatal(err)
			}
			if cj.WorkloadDigest != job.WorkloadDigest || cj.OptionsDigest != job.OptionsDigest {
				t.Fatalf("compiled job digests (%.12s, %.12s) differ from the direct compile (%.12s, %.12s)",
					cj.WorkloadDigest, cj.OptionsDigest, job.WorkloadDigest, job.OptionsDigest)
			}
		})
	}
}

// TestSegmentationServeIdentityIsChainOnly pins segmentation's documented
// divergence: the serve identity hashes only the chain (plus the constant
// options tag), NOT the per-op curves the shard jobs hash — and that is
// sound because the per-op curves are a pure function of the chain, so
// the shard digests under one serve digest are still deterministic.
func TestSegmentationServeIdentityIsChainOnly(t *testing.T) {
	req := Request{Segmentation: &SegmentationSpec{Einsums: segEinsums}}
	d, err := buildDerivation(&req, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := segTestChain(t, segEinsums)
	wantKey := string(shard.KindSegmentation) + "|" +
		shard.Digest(c.Canonical()) + "|" + shard.Digest("segmentation{}")
	if d.key != wantKey {
		t.Fatalf("segmentation serve key %q, want chain-only key %q", d.key, wantKey)
	}

	// The shard-job identity really does diverge: it hashes the per-op
	// curves into the workload digest.
	plan := shard.Plan{Index: 0, Count: 1}
	perOp := c.PerOpCurves(bound.Options{Workers: 2})
	job, err := workload.NewSegmentation(c, perOp).Compile(plan, workload.Exec{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if shard.Digest(c.Canonical()) == job.WorkloadDigest {
		t.Fatal("segmentation shard workload digest unexpectedly equals the chain digest; the divergence this test documents is gone — unify the identities and drop Spec.CacheDigests")
	}

	// Soundness: two independent materializations of the same chain
	// compile to the same shard digests, so every server process that
	// spools under the chain-only digest writes compatible partials.
	exec := workload.Exec{Workers: 2}
	m1, err := workload.NewSegmentation(c, nil).Materialize(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := workload.NewSegmentation(segTestChain(t, segEinsums), nil).Materialize(context.Background(), exec)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := m1.Compile(plan, exec)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m2.Compile(plan, exec)
	if err != nil {
		t.Fatal(err)
	}
	if j1.WorkloadDigest != j2.WorkloadDigest || j1.OptionsDigest != j2.OptionsDigest {
		t.Fatalf("independent materializations compile to different shard digests (%.12s vs %.12s); per-op curves are not a pure function of the chain and the chain-only serve identity is unsound",
			j1.WorkloadDigest, j2.WorkloadDigest)
	}
	if j1.WorkloadDigest != job.WorkloadDigest {
		t.Fatalf("materialized segmentation job digest %.12s differs from the directly compiled one %.12s",
			j1.WorkloadDigest, job.WorkloadDigest)
	}
}
