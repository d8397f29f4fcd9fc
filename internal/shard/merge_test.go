package shard_test

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/shard"
	"repro/internal/workload"
)

// TestExactMergeIsCompleteDegradedMerge pins the one merge: over a
// complete shard set of each kind's golden spec, the exact merge is
// byte-for-byte the curve of the degraded merge, whose envelope says
// "degraded":false.
func TestExactMergeIsCompleteDegradedMerge(t *testing.T) {
	for _, kind := range []string{"bound", "multilevel", "fusion-tiled", "segmentation"} {
		t.Run(kind, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join("..", "workload", "testdata", "spec_"+kind+".json"))
			if err != nil {
				t.Fatal(err)
			}
			spec, err := workload.Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if spec, err = spec.Materialize(context.Background(), workload.Exec{Workers: 1}); err != nil {
				t.Fatal(err)
			}
			var partials []*shard.Partial
			for _, path := range runShards(t, t.TempDir(), 3, spec, 1) {
				p, err := shard.ReadPartial(nil, path)
				if err != nil {
					t.Fatal(err)
				}
				partials = append(partials, p)
			}
			exact, err := shard.Merge(partials...)
			if err != nil {
				t.Fatal(err)
			}
			d, err := shard.MergeDegraded(partials...)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := curveBytes(t, d.Curve), curveBytes(t, exact); got != want {
				t.Fatalf("complete degraded merge differs from the exact merge\n got %s\nwant %s", got, want)
			}
			env, err := json.Marshal(d)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.HasPrefix(string(env), `{"degraded":false,`) {
				t.Fatalf("complete degraded merge envelope is not marked exact: %.80s", env)
			}
		})
	}
}
