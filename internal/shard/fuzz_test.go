package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/shard"
	"repro/internal/workload"
)

// FuzzPartialDecode fuzzes the decoder every resumed checkpoint, merged
// shard file and fleet worker response goes through. Seeds are real
// partial frontiers of every derivation kind, one of them still
// mid-range. Arbitrary bytes must be rejected with ErrCorruptPartial or
// decode to a partial whose manifest validates, which re-encodes and
// decodes back to an equal value.
func FuzzPartialDecode(f *testing.F) {
	c, perOp := segChain(f)
	specs := []*workload.Spec{
		workload.NewBound(einsum.GEMM("g", 8, 6, 4), bound.Options{Workers: 1}),
		workload.NewMultiLevel(einsum.GEMM("g", 8, 6, 4), 256),
		workload.NewFusionTiled(testChain(f)),
		workload.NewSegmentation(c, perOp),
	}
	dir := f.TempDir()
	for i, spec := range specs {
		job, err := spec.Compile(shard.Plan{Index: 1, Count: 2}, workload.Exec{Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		p, _, err := shard.Run(context.Background(), job, shard.RunOptions{Path: filepath.Join(dir, string(spec.Kind)+".json")})
		if err != nil {
			f.Fatal(err)
		}
		if p.Manifest.Kind != spec.Kind {
			f.Fatalf("spec %d: partial of kind %q, want %q", i, p.Manifest.Kind, spec.Kind)
		}
		data, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if i == 0 {
			p.Manifest.CompletedThrough = p.Manifest.RangeLo
			p.Manifest.Spec = nil
			p.Manifest.FormatVersion = shard.MinFormatVersion
			if data, err = json.Marshal(p); err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := shard.DecodePartial(data)
		if err != nil {
			if !errors.Is(err, shard.ErrCorruptPartial) {
				t.Fatalf("rejection does not wrap ErrCorruptPartial: %v", err)
			}
			return
		}
		if err := p.Manifest.Validate(); err != nil {
			t.Fatalf("accepted a manifest that fails Validate: %v", err)
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("re-encoding an accepted partial: %v", err)
		}
		back, err := shard.DecodePartial(enc)
		if err != nil {
			t.Fatalf("re-decoding %s: %v", enc, err)
		}
		// The embedded spec is raw JSON, which encoding compacts.
		if len(p.Manifest.Spec) > 0 {
			var spec bytes.Buffer
			if err := json.Compact(&spec, p.Manifest.Spec); err != nil {
				t.Fatal(err)
			}
			p.Manifest.Spec = spec.Bytes()
		}
		if !reflect.DeepEqual(p.Manifest, back.Manifest) {
			t.Fatalf("manifest round trip:\n got %+v\nwant %+v", back.Manifest, p.Manifest)
		}
		if g, w := back.Curve.Canonical(), p.Curve.Canonical(); g != w {
			t.Fatalf("curve round trip:\n got %s\nwant %s", g, w)
		}
	})
}
