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
// the range start (the skip floor), not each block's own. The _nosync
// variants run the same work with the fsyncs dropped, so disk latency
// does not drown the per-block derivation set-up.
func BenchmarkShardRun(b *testing.B) {
	for _, e := range []*einsum.Einsum{
		einsum.GEMM("gemm_256x192x128", 256, 192, 128),
		einsum.BMM("bmm_h32", 32, 4096, 128, 4096),
	} {
		for _, disk := range []struct {
			suffix string
			fs     shard.FS
		}{{"", nil}, {"_nosync", noSyncFS{shard.OS()}}} {
			b.Run(e.Name+disk.suffix, func(b *testing.B) {
				spec := workload.NewBound(e, bound.Options{})
				job, err := spec.Compile(shard.Plan{Index: 0, Count: 1}, workload.Exec{Workers: 1})
				if err != nil {
					b.Fatal(err)
				}
				want := job.Manifest()
				opts := shard.RunOptions{CheckpointEvery: (job.Items + 31) / 32, FS: disk.fs}
				dir := b.TempDir()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					opts.Path = filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
					if _, _, err := shard.Claim(disk.fs, opts.Path, &want); err != nil {
						b.Fatal(err)
					}
					_, rs, err := shard.Run(context.Background(), job, opts)
					if err != nil {
						b.Fatal(err)
					}
					if rs.Blocks < 30 {
						b.Fatalf("%d checkpoint blocks, want about 32", rs.Blocks)
					}
					if _, err := shard.MergeFiles(disk.fs, opts.Path); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// noSyncFS is the OS filesystem with its fsyncs dropped.
type noSyncFS struct{ shard.FS }

func (f noSyncFS) CreateTemp(dir, pattern string) (shard.File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return noSyncFile{file}, nil
}

func (noSyncFS) SyncDir(string) error { return nil }

type noSyncFile struct{ shard.File }

func (noSyncFile) Sync() error { return nil }
