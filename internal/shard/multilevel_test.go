package shard_test

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"testing"

	"repro/internal/einsum"
	"repro/internal/multilevel"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestMultiLevelJobMergeParity closes the first half of the ROADMAP item
// on sharding the remaining derivation paths: for N in {2, 4}, running the
// three-level derivation as N checkpointed shard jobs and merging the
// partial frontiers is byte-identical to the single-process DRAM curve.
func TestMultiLevelJobMergeParity(t *testing.T) {
	e := einsum.GEMM("gemm_ml", 24, 16, 12)
	const l1Cap = 1 << 10
	opts := multilevel.Options{Workers: 2}

	full, err := multilevel.Derive(e, l1Cap, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(full.DRAM)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{2, 4} {
		dir := t.TempDir()
		paths := make([]string, n)
		var evaluated int64
		for k := 0; k < n; k++ {
			job, err := workload.NewMultiLevel(e, l1Cap).Compile(shard.Plan{Index: k, Count: n}, workload.Exec{Workers: opts.Workers})
			if err != nil {
				t.Fatalf("N=%d shard %d: %v", n, k, err)
			}
			if job.Kind != shard.KindMultiLevel {
				t.Fatalf("N=%d: job kind %q, want %q", n, job.Kind, shard.KindMultiLevel)
			}
			paths[k] = filepath.Join(dir, fmt.Sprintf("ml-%d-of-%d.json", k+1, n))
			_, rs, err := shard.Run(context.Background(), job, shard.RunOptions{Path: paths[k], CheckpointEvery: 3})
			if err != nil {
				t.Fatalf("N=%d shard %d: %v", n, k, err)
			}
			evaluated += rs.Evaluated
		}
		if evaluated != full.Mappings {
			t.Fatalf("N=%d: shards evaluated %d mappings, single process %d — the cover is not exact",
				n, evaluated, full.Mappings)
		}
		merged, err := shard.MergeFiles(paths...)
		if err != nil {
			t.Fatalf("N=%d: merge: %v", n, err)
		}
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("N=%d: merged DRAM curve differs from single-process derive\n got %s\nwant %s", n, got, want)
		}
	}
}

// TestMultiLevelResultMergeParity pins the in-process counterpart the job
// is built on: multilevel.Merge over DeriveRange partials reproduces the
// full Derive result (DRAM and L2 curves and the joint table) for the
// same shard counts.
func TestMultiLevelResultMergeParity(t *testing.T) {
	e := einsum.GEMM("gemm_ml", 24, 16, 12)
	const l1Cap = 1 << 10
	opts := multilevel.Options{Workers: 2}

	full, err := multilevel.Derive(e, l1Cap, opts)
	if err != nil {
		t.Fatal(err)
	}
	space, err := multilevel.Space(e)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		parts := make([]*multilevel.Result, n)
		for k := 0; k < n; k++ {
			lo, hi := (shard.Plan{Index: k, Count: n}).Slice(space)
			parts[k], err = multilevel.DeriveRange(context.Background(), e, l1Cap, lo, hi, opts)
			if err != nil {
				t.Fatalf("N=%d shard %d: %v", n, k, err)
			}
		}
		merged, err := multilevel.Merge(parts...)
		if err != nil {
			t.Fatalf("N=%d: %v", n, err)
		}
		gotDRAM, _ := json.Marshal(merged.DRAM)
		wantDRAM, _ := json.Marshal(full.DRAM)
		if string(gotDRAM) != string(wantDRAM) {
			t.Fatalf("N=%d: merged DRAM curve differs", n)
		}
		gotL2, _ := json.Marshal(merged.L2)
		wantL2, _ := json.Marshal(full.L2)
		if string(gotL2) != string(wantL2) {
			t.Fatalf("N=%d: merged L2 curve differs", n)
		}
		for _, cap := range []int64{1 << 11, 1 << 13, 1 << 15} {
			gl2, gdram, gok := merged.MinL2GivenOptimalDRAM(cap)
			wl2, wdram, wok := full.MinL2GivenOptimalDRAM(cap)
			if gl2 != wl2 || gdram != wdram || gok != wok {
				t.Fatalf("N=%d cap=%d: joint answer (%d,%d,%t) vs full (%d,%d,%t)",
					n, cap, gl2, gdram, gok, wl2, wdram, wok)
			}
		}
	}
}
