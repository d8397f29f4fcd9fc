package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/mapping"
	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/shard"
	"repro/internal/snowcat"
	"repro/internal/workload"
)

// curveBytes is the byte-for-byte comparison the acceptance criterion
// pins: the merged curve must serialize identically to the single-process
// one, annotations included.
func curveBytes(t *testing.T, c *pareto.Curve) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// compile builds the shard job of one plan slot of spec, run with the
// given worker count.
func compile(t *testing.T, spec *workload.Spec, plan shard.Plan, workers int) shard.Job {
	t.Helper()
	job, err := spec.Compile(plan, workload.Exec{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return job
}

// runShards executes every shard of an N-way plan of spec to completion
// through the real file-backed shard.Run path and returns the written
// file names.
func runShards(t *testing.T, dir string, n int, spec *workload.Spec, workers int) []string {
	t.Helper()
	paths := make([]string, n)
	for k := 0; k < n; k++ {
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%d-of-%d.json", k+1, n))
		job := compile(t, spec, shard.Plan{Index: k, Count: n}, workers)
		if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: paths[k], CheckpointEvery: 7}); err != nil {
			t.Fatalf("shard %d/%d: %v", k+1, n, err)
		}
	}
	return paths
}

func TestBoundShardingParity(t *testing.T) {
	e := einsum.GEMM("gemm_64", 64, 64, 64)
	opts := bound.Options{Workers: 2}
	want := curveBytes(t, bound.Derive(e, opts).Curve)

	for _, n := range []int{2, 4, 8} {
		paths := runShards(t, t.TempDir(), n, workload.NewBound(e, opts), opts.Workers)
		merged, err := shard.MergeFiles(nil, paths...)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if got := curveBytes(t, merged); got != want {
			t.Fatalf("N=%d: merged curve differs from single-process derive\n got %s\nwant %s", n, got, want)
		}
	}
}

func TestBoundShardingParityImperfect(t *testing.T) {
	e := einsum.GEMM("gemm_48", 48, 40, 36)
	opts := bound.Options{ImperfectExtra: 3}
	want := curveBytes(t, bound.Derive(e, opts).Curve)

	paths := runShards(t, t.TempDir(), 4, workload.NewBound(e, opts), opts.Workers)
	merged, err := shard.MergeFiles(nil, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if got := curveBytes(t, merged); got != want {
		t.Fatalf("imperfect merged curve differs from single-process derive\n got %s\nwant %s", got, want)
	}
}

// TestDegradedMergeKeepsCoveredTilings: a degraded merge is the frontier
// of every tiling its shards cover, also when the tilings that dominate
// them lie in a missing shard. A BMM's head count is its most
// significant digit, so with shard 1/2 missing shard 2/2 holds only head
// splits above 1, each dominated by a head-split-1 tiling of shard 1/2;
// an imperfect GEMM's repeated outer bounds straddle shard boundaries
// the same way.
func TestDegradedMergeKeepsCoveredTilings(t *testing.T) {
	for _, c := range []struct {
		e      *einsum.Einsum
		opts   bound.Options
		shards int
	}{
		{einsum.BMM("bmm", 32, 16, 8, 16), bound.Options{}, 2},
		{einsum.BMM("bmm", 32, 16, 8, 16), bound.Options{ChargeSpills: true}, 3},
		{einsum.GEMM("gemm", 48, 40, 36), bound.Options{ImperfectExtra: 5}, 3},
	} {
		spec := workload.NewBound(c.e, c.opts)
		paths := runShards(t, t.TempDir(), c.shards, spec, 2)
		var partials []*shard.Partial
		for _, path := range paths[1:] {
			p, err := shard.ReadPartial(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			partials = append(partials, p)
		}
		d, err := shard.MergeDegraded(partials...)
		if err != nil {
			t.Fatal(err)
		}

		// Score every covered tiling, none skipped.
		en := mapping.NewEnum(c.e)
		acct := snowcat.Perfect
		switch {
		case c.opts.ImperfectExtra > 0:
			en, acct = mapping.NewImperfectEnum(c.e, c.opts.ImperfectExtra), snowcat.Imperfect
		case c.opts.ChargeSpills:
			acct = snowcat.SpillCharged
		}
		lo, _ := shard.Plan{Index: 1, Count: c.shards}.Slice(en.Tilings())
		ev := snowcat.NewEvaluator(c.e)
		b := pareto.NewBuilder()
		en.VisitTilings(lo, en.Tilings(), mapping.Skip{}, 0, func(splits []shape.Split, _ bool) {
			b.Add(ev.MinCompact(acct, splits))
		})
		want := b.Curve()
		if d.CoveredIndices != en.Tilings()-lo || want.Empty() {
			t.Fatalf("%s %s: covered %d of %d tilings from %d", c.e, c.opts.Canonical(), d.CoveredIndices, en.Tilings(), lo)
		}
		if g, w := fmt.Sprint(d.Curve.Points()), fmt.Sprint(want.Points()); g != w {
			t.Fatalf("%s %s without shard 1/%d: degraded curve\n%s\nwant the covered tilings' frontier\n%s",
				c.e, c.opts.Canonical(), c.shards, g, w)
		}
	}
}

func testChain(t testing.TB) *fusion.Chain {
	t.Helper()
	c, err := fusion.NewChain("ffn", 64,
		fusion.GEMMOp("mm_0", 64, 32, 48),
		fusion.GEMMOp("mm_1", 64, 48, 16))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFusionShardingParity(t *testing.T) {
	c := testChain(t)
	want, _, err := fusion.TiledFusionStats(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := curveBytes(t, want)

	for _, n := range []int{2, 4, 8} {
		paths := runShards(t, t.TempDir(), n, workload.NewFusionTiled(c), 2)
		merged, err := shard.MergeFiles(nil, paths...)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if got := curveBytes(t, merged); got != wantBytes {
			t.Fatalf("N=%d: merged tiled-fusion curve differs from single-process sweep\n got %s\nwant %s", n, got, wantBytes)
		}
	}
}

// segChain returns a five-op chain whose segmentation mask space has
// 2^4 = 16 entries — enough to slice meaningfully across 8 shards and to
// checkpoint mid-shard.
func segChain(t testing.TB) (*fusion.Chain, []*pareto.Curve) {
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
	return c, c.PerOpCurves(bound.Options{Workers: 1})
}

// TestSegmentationShardingParity pins the tentpole acceptance criterion:
// the sharded segmentation study merges byte-identically to the
// in-process fusion.Analyze best curve for N ∈ {2, 4, 8}.
func TestSegmentationShardingParity(t *testing.T) {
	c, perOp := segChain(t)
	a, err := fusion.Analyze(c, bound.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := curveBytes(t, a.Best)

	for _, n := range []int{2, 4, 8} {
		paths := runShards(t, t.TempDir(), n, workload.NewSegmentation(c, perOp), 2)
		merged, err := shard.MergeFiles(nil, paths...)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		if got := curveBytes(t, merged); got != wantBytes {
			t.Fatalf("N=%d: merged segmentation curve differs from single-process study\n got %s\nwant %s", n, got, wantBytes)
		}
	}
}

// TestSegmentationKillAndResumeParity kills a segmentation shard between
// checkpoint flushes and resumes it with the SAME job — deliberately
// reusing the sweep whose memo saw the cancellation, so the test covers
// both the recompute-on-resume story (memo entries are derived state, not
// checkpointed) and the memo re-arm fix (a cancelled sub-chain compute
// must be retried, not replayed as a stale error).
func TestSegmentationKillAndResumeParity(t *testing.T) {
	c, perOp := segChain(t)
	a, err := fusion.Analyze(c, bound.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := curveBytes(t, a.Best)

	const n = 4
	dir := t.TempDir()
	paths := make([]string, n)
	for k := 0; k < n; k++ {
		paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%d.json", k+1))
		job := compile(t, workload.NewSegmentation(c, perOp), shard.Plan{Index: k, Count: n}, 1)
		if k != 1 {
			if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: paths[k], CheckpointEvery: 2}); err != nil {
				t.Fatal(err)
			}
			continue
		}

		// Kill shard 2 after its first flush...
		ctx, cancel := context.WithCancel(context.Background())
		_, _, err = shard.Run(ctx, job, shard.RunOptions{
			Path:            paths[k],
			CheckpointEvery: 2,
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
			t.Fatal("kill point was after shard completion; lower CheckpointEvery")
		}

		// ...then restart the same job on the same file.
		_, stats, err := shard.Run(context.Background(), job, shard.RunOptions{Path: paths[k], CheckpointEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Resumed || stats.ResumedFrom != killed.Manifest.CompletedThrough {
			t.Fatalf("restart did not resume at checkpoint: stats %+v, checkpoint at %d",
				stats, killed.Manifest.CompletedThrough)
		}
	}
	merged, err := shard.MergeFiles(nil, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if got := curveBytes(t, merged); got != wantBytes {
		t.Fatalf("kill+resume merged segmentation curve differs from single-process result\n got %s\nwant %s", got, wantBytes)
	}
}

// TestKillAndResumeParity kills one shard mid-run (context cancellation
// after a fixed number of checkpoint flushes — the same code path as a
// SIGKILL between flushes, since each flush is an atomic rename), resumes
// it, and checks that the merged curve still matches the single-process
// result byte for byte. Both derivation kinds are covered.
func TestKillAndResumeParity(t *testing.T) {
	e := einsum.GEMM("gemm_64", 64, 64, 64)
	opts := bound.Options{}
	chain := testChain(t)

	kinds := []struct {
		name string
		want string
		spec *workload.Spec
	}{
		{
			name: "bound",
			want: curveBytes(t, bound.Derive(e, opts).Curve),
			spec: workload.NewBound(e, opts),
		},
		{
			name: "fusion-tiled",
			want: func() string {
				cv, _, err := fusion.TiledFusionStats(chain, 0)
				if err != nil {
					t.Fatal(err)
				}
				return curveBytes(t, cv)
			}(),
			spec: workload.NewFusionTiled(chain),
		},
	}

	for _, kind := range kinds {
		for _, killAfter := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/killAfter=%d", kind.name, killAfter), func(t *testing.T) {
				const n = 4
				dir := t.TempDir()
				paths := make([]string, n)
				for k := 0; k < n; k++ {
					paths[k] = filepath.Join(dir, fmt.Sprintf("shard-%d.json", k+1))
					job := compile(t, kind.spec, shard.Plan{Index: k, Count: n}, 1)
					if k != 1 {
						if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: paths[k], CheckpointEvery: 5}); err != nil {
							t.Fatal(err)
						}
						continue
					}

					// Kill shard 2 after killAfter flushes...
					ctx, cancel := context.WithCancel(context.Background())
					flushes := 0
					_, _, err := shard.Run(ctx, job, shard.RunOptions{
						Path:            paths[k],
						CheckpointEvery: 5,
						OnCheckpoint: func(shard.Manifest) {
							flushes++
							if flushes >= killAfter {
								cancel()
							}
						},
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
						t.Fatal("kill point was after shard completion; lower CheckpointEvery")
					}

					// ...then restart it on the same file.
					_, stats, err := shard.Run(context.Background(), job, shard.RunOptions{Path: paths[k], CheckpointEvery: 5})
					if err != nil {
						t.Fatal(err)
					}
					if !stats.Resumed || stats.ResumedFrom != killed.Manifest.CompletedThrough {
						t.Fatalf("restart did not resume at checkpoint: stats %+v, checkpoint at %d",
							stats, killed.Manifest.CompletedThrough)
					}
				}
				merged, err := shard.MergeFiles(nil, paths...)
				if err != nil {
					t.Fatal(err)
				}
				if got := curveBytes(t, merged); got != kind.want {
					t.Fatalf("kill+resume merged curve differs from single-process result\n got %s\nwant %s", got, kind.want)
				}
			})
		}
	}
}

// TestMergeRefusesMismatchedDerivations shards the same workload under
// different options and checks the merge refuses to combine them.
func TestMergeRefusesMismatchedDerivations(t *testing.T) {
	e := einsum.GEMM("gemm_64", 64, 64, 64)
	dir := t.TempDir()
	mk := func(name string, opts bound.Options, plan shard.Plan) string {
		job := compile(t, workload.NewBound(e, opts), plan, 0)
		path := filepath.Join(dir, name)
		if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: path}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	perfect := mk("perfect.json", bound.Options{}, shard.Plan{Index: 0, Count: 2})
	imperfect := mk("imperfect.json", bound.Options{ImperfectExtra: 2}, shard.Plan{Index: 1, Count: 2})
	if _, err := shard.MergeFiles(nil, perfect, imperfect); err == nil {
		t.Fatal("merge combined partials of different derivation options")
	}

	spills := mk("spills.json", bound.Options{ChargeSpills: true}, shard.Plan{Index: 1, Count: 2})
	if _, err := shard.MergeFiles(nil, perfect, spills); err == nil {
		t.Fatal("merge combined spill-charged with default accounting")
	}
}

// TestRunRefusesForeignCheckpoint pins the resume guard: a run must not
// continue from (or overwrite) a checkpoint of a different derivation or
// a different shard of the same derivation.
func TestRunRefusesForeignCheckpoint(t *testing.T) {
	e := einsum.GEMM("gemm_64", 64, 64, 64)
	path := filepath.Join(t.TempDir(), "shard.json")
	job := compile(t, workload.NewBound(e, bound.Options{}), shard.Plan{Index: 0, Count: 2}, 0)
	if _, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: path}); err != nil {
		t.Fatal(err)
	}

	other := compile(t, workload.NewBound(e, bound.Options{ImperfectExtra: 2}), shard.Plan{Index: 0, Count: 2}, 0)
	if _, _, err := shard.Run(context.Background(), other, shard.RunOptions{Path: path}); err == nil {
		t.Fatal("run resumed from a checkpoint of different options")
	}

	sibling := compile(t, workload.NewBound(e, bound.Options{}), shard.Plan{Index: 1, Count: 2}, 0)
	if _, _, err := shard.Run(context.Background(), sibling, shard.RunOptions{Path: path}); err == nil {
		t.Fatal("run resumed from a sibling shard's checkpoint")
	}
}

// TestMoreShardsThanItems exercises empty slices: shards beyond the item
// count must still write complete, annotated, mergeable partials.
func TestMoreShardsThanItems(t *testing.T) {
	e := einsum.GEMM("gemm_2", 2, 2, 2) // 8 tilings
	opts := bound.Options{}
	if got, err := bound.Space(e, opts); err != nil || got != 8 {
		t.Fatalf("space = %d (%v), want 8", got, err)
	}
	want := curveBytes(t, bound.Derive(e, opts).Curve)

	paths := runShards(t, t.TempDir(), 16, workload.NewBound(e, opts), opts.Workers)
	merged, err := shard.MergeFiles(nil, paths...)
	if err != nil {
		t.Fatal(err)
	}
	if got := curveBytes(t, merged); got != want {
		t.Fatalf("merged curve differs with empty shards\n got %s\nwant %s", got, want)
	}
}
