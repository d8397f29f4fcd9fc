package shard_test

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/shard"
	"repro/internal/workload"
)

// BenchmarkShardRun is the checkpoint+merge rung of the benchmark ladder:
// one whole-space shard of a bound derivation, claimed (shard.Claim, as
// the scheduler and the worker claim every slot), run in about 32
// checkpoint blocks on the OS filesystem — each flush an fsync'd atomic
// rewrite — and merged back from its file. One traversal worker keeps the
// derivation share steady. The 256×192×128 GEMM tracks the slot, flush
// and merge overhead; the Fig. 13 h32 BMM tracks what the blocks skip,
// since its head splits and its m ↔ n mirror images are skipped against
// the range start (the skip floor), not each block's own.
func BenchmarkShardRun(b *testing.B) {
	for _, e := range []*einsum.Einsum{
		einsum.GEMM("gemm_256x192x128", 256, 192, 128),
		einsum.BMM("bmm_h32", 32, 4096, 128, 4096),
	} {
		b.Run(e.Name, func(b *testing.B) {
			spec := workload.NewBound(e, bound.Options{})
			job, err := spec.Compile(shard.Plan{Index: 0, Count: 1}, workload.Exec{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			want := job.Manifest()
			opts := shard.RunOptions{CheckpointEvery: (job.Items + 31) / 32}
			dir := b.TempDir()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts.Path = filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
				if _, _, err := shard.Claim(nil, opts.Path, &want); err != nil {
					b.Fatal(err)
				}
				_, rs, err := shard.Run(context.Background(), job, opts)
				if err != nil {
					b.Fatal(err)
				}
				if rs.Blocks < 30 {
					b.Fatalf("%d checkpoint blocks, want about 32", rs.Blocks)
				}
				if _, err := shard.MergeFiles(nil, opts.Path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
