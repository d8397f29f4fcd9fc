package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/workload"
)

// FuzzSpecFromRequest fuzzes the /v1/curve request decoder: the body is
// decoded as handleCurve decodes it and translated by specFromRequest.
// Arbitrary bytes must be rejected without a panic or yield a spec whose
// canonical encoding — what the spool persists — decodes to a derivation
// with the same label, cache key and digest, the identity ResumeOrphans
// re-checks. The spec is also sized as handleCurve sizes a miss, which
// must fail with an error, not a panic, when the space overflows. Seeds
// are the committed corpus under testdata/fuzz.
func FuzzSpecFromRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		var req Request
		if dec.Decode(&req) != nil {
			return
		}
		spec, err := specFromRequest(&req)
		if err != nil {
			return
		}
		d, err := derivationFromSpec(spec, 1)
		if err != nil {
			return
		}
		if _, err := d.spec.Space(); err != nil {
			return
		}
		enc, err := spec.Encode()
		if err != nil {
			t.Fatalf("accepted request's spec does not encode: %v", err)
		}
		back, err := workload.Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding %s of an accepted request does not decode: %v", enc, err)
		}
		d2, err := derivationFromSpec(back, 1)
		if err != nil {
			t.Fatalf("decoded spec %s has no derivation: %v", enc, err)
		}
		if d2.label != d.label || d2.key != d.key || d2.digest != d.digest {
			t.Fatalf("identity changed across the spool encoding %s: %q %.12s %.12s vs %q %.12s %.12s",
				enc, d.label, d.key, d.digest, d2.label, d2.key, d2.digest)
		}
	})
}

// FuzzShardRequest fuzzes the /v1/shard request path up to the
// derivation: the body is decoded by decodeRequest, as handleShard
// decodes it, and checked and compiled by shardJob (format version, plan
// slot, workload.Decode, Compile). Arbitrary bytes must be rejected with
// a 400 code and an error, never a panic, or compile to a job whose fresh
// manifest validates. Seeds are the committed corpus under testdata/fuzz.
func FuzzShardRequest(f *testing.F) {
	s := New(Config{Workers: 1, FleetProbeInterval: -1})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		var req ShardRequest
		if !decodeRequest(w, httptest.NewRequest(http.MethodPost, "/v1/shard", bytes.NewReader(body)), &req) {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("undecodable body answered %d, want 400", w.Code)
			}
			return
		}
		job, code, err := s.shardJob(&req)
		if err != nil {
			if code == "" {
				t.Fatalf("rejection without an error code: %v", err)
			}
			return
		}
		m := job.Manifest()
		if err := m.Validate(); err != nil {
			t.Fatalf("accepted request compiles to an invalid manifest: %v", err)
		}
	})
}
