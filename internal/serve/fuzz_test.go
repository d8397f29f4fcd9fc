package serve

import (
	"bytes"
	"encoding/json"
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
