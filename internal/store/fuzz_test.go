package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/shard"
	"repro/internal/workload"
)

// fuzzSpecs are one small Spec of every derivation kind.
func fuzzSpecs(tb testing.TB) []*workload.Spec {
	ops := []*einsum.Einsum{
		einsum.GEMM("op0", 16, 4, 8),
		einsum.GEMM("op1", 16, 8, 8),
		einsum.GEMM("op2", 16, 8, 4),
	}
	chain, err := fusion.FromEinsums("fuzz", ops...)
	if err != nil {
		tb.Fatal(err)
	}
	return []*workload.Spec{
		workload.NewBound(einsum.GEMM("g", 8, 6, 4), bound.Options{ImperfectExtra: 1}),
		workload.NewMultiLevel(einsum.GEMM("g", 8, 6, 4), 256),
		workload.NewFusionTiled(chain),
		workload.NewSegmentation(chain, nil),
	}
}

// FuzzStoreEntryDecode feeds arbitrary bytes and digests through
// decodeEntry, the one decoder every Get trusts: each input once as an
// entry file, and once sealed as the payload of an envelope with a valid
// checksum — most mutations of a whole file only break its checksum, so
// sealing is what reaches the payload decoding and the Entry invariants.
// Anything decodeEntry accepts must satisfy validate, and must re-encode
// to bytes that decode back to an entry with the same encoding. Seeds are
// real entries of every derivation kind, as files and as payloads.
func FuzzStoreEntryDecode(f *testing.F) {
	for _, spec := range fuzzSpecs(f) {
		res, err := spec.Run(context.Background(), workload.Exec{Workers: 1})
		if err != nil {
			f.Fatal(err)
		}
		_, digest, err := Identity(spec)
		if err != nil {
			f.Fatal(err)
		}
		ent := &Entry{
			Kind:      spec.Kind,
			Workload:  spec.Describe(),
			Evaluated: res.Evaluated,
			ElapsedMS: 3,
			Curve:     res.Curve,
			Segments:  res.Segments,
		}
		data, err := encodeEntry(digest, ent)
		if err != nil {
			f.Fatal(err)
		}
		payload, err := json.Marshal(ent)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, digest)
		f.Add(payload, digest)
	}
	f.Fuzz(func(t *testing.T, data []byte, digest string) {
		checkDecode(t, data, digest)
		if sealed := seal(digest, data); sealed != nil {
			checkDecode(t, sealed, digest)
		}
	})
}

// seal wraps payload in an envelope that passes every header check, or
// returns nil when payload is not JSON.
func seal(digest string, payload []byte) []byte {
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		return nil
	}
	sum := sha256.Sum256(compact.Bytes())
	data, err := json.Marshal(&envelope{
		FormatVersion: FormatVersion,
		Engine:        shard.Engine,
		Digest:        digest,
		PayloadSHA256: hex.EncodeToString(sum[:]),
		Payload:       compact.Bytes(),
	})
	if err != nil {
		return nil
	}
	return data
}

// checkDecode asserts the decoder's contract on one input.
func checkDecode(t *testing.T, data []byte, digest string) {
	ent, err := decodeEntry(data, digest)
	if err != nil {
		if !errors.Is(err, ErrCorruptEntry) {
			t.Fatalf("rejection does not wrap ErrCorruptEntry: %v", err)
		}
		return
	}
	if err := ent.validate(); err != nil {
		t.Fatalf("accepted an entry that fails validate: %v", err)
	}
	enc, err := encodeEntry(digest, ent)
	if err != nil {
		t.Fatalf("re-encoding an accepted entry: %v", err)
	}
	back, err := decodeEntry(enc, digest)
	if err != nil {
		t.Fatalf("re-decoding %s: %v", enc, err)
	}
	again, err := encodeEntry(digest, back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, again) {
		t.Fatalf("entry round trip:\n got %s\nwant %s", again, enc)
	}
}
