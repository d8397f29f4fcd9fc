package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/shard"
)

var updateWire = flag.Bool("update", false, "rewrite the golden response bodies under testdata/wire")

// elapsedField matches the one wall-time field of a success body; it is
// the only byte of a response that may differ between two runs.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9]+`)

// wireChain is a three-op chain small enough to derive in milliseconds.
var wireChain = []string{
	`B[m,n] = A[m,k] * W[k,n] {M=16,K=4,N=8}`,
	`C[m,n] = B[m,k] * V[k,n] {M=16,K=8,N=8}`,
	`D[m,n] = C[m,k] * U[k,n] {M=16,K=8,N=4}`,
}

// wireCase is one request whose success bodies are pinned: as a miss, as
// a memory hit, and as a durable-store hit after a restart.
type wireCase struct {
	name string
	body string
}

func wireCases() []wireCase {
	chain, _ := json.Marshal(wireChain)
	return []wireCase{
		{"bound", `{"gemm":{"m":32,"k":24,"n":16}}`},
		{"bound-imperfect", `{"einsum":"O[p,q] = I[2p+r,q] * F[r,q] {P=8,R=3,Q=4}","options":{"imperfect_extra":2}}`},
		{"bound-spills", `{"gemm":{"m":24,"k":16,"n":12},"options":{"charge_spills":true}}`},
		{"multilevel", `{"gemm":{"m":16,"k":12,"n":8},"multilevel":{"l1_cap_bytes":256}}`},
		{"fusion-tiled", fmt.Sprintf(`{"chain":{"name":"wire","einsums":%s}}`, chain)},
		// The chain name lands in the label, so this label carries every
		// character class the envelope's string encoding treats specially:
		// HTML characters (kept raw), quotes and backslashes, control
		// characters, non-ASCII, and the JavaScript line separators.
		{"fusion-tiled-label-escapes", fmt.Sprintf(`{"chain":{"name":"w <&> \"q\" \\ é \u2028\u2029 \t\u0001","einsums":%s}}`, chain)},
		{"segmentation", fmt.Sprintf(`{"segmentation":{"name":"wire","einsums":%s}}`, chain)},
		{"shards", `{"gemm":{"m":32,"k":24,"n":16},"shards":3}`},
	}
}

// TestWireBytesPinned pins every /v1/curve success body byte for byte, two
// ways: against encoding/json (HTML escaping off) of the CurveResponse the
// body decodes to — the documented schema — and against the golden bodies
// under testdata/wire, which fix the exact bytes across changes to how the
// envelope is written. Each outcome — a miss, a memory hit, a durable-store
// hit after a restart, and a memory hit after that — has its own golden
// body, as only cached may differ between them; elapsed_ms is wall time
// and is zeroed before comparing.
func TestWireBytesPinned(t *testing.T) {
	for _, tc := range wireCases() {
		t.Run(tc.name, func(t *testing.T) {
			storeDir := t.TempDir()
			spool := t.TempDir()
			cfg := Config{Workers: 2, StoreDir: storeDir, SpoolDir: spool}
			_, ts := newTestServer(t, cfg)
			checkWire(t, tc.name+"-miss", ts.URL, tc.body, http.StatusOK)
			checkWire(t, tc.name+"-memhit", ts.URL, tc.body, http.StatusOK)
			ts.Close()

			_, ts2 := newTestServer(t, cfg)
			checkWire(t, tc.name+"-storehit", ts2.URL, tc.body, http.StatusOK)
			checkWire(t, tc.name+"-storehit-memhit", ts2.URL, tc.body, http.StatusOK)
		})
	}
}

// TestWireBytesPinnedDegraded206 pins the 206 envelope of an
// allow_partial request whose middle shard can never commit: the coverage
// annotation follows the curve fields in CurveResponse order.
func TestWireBytesPinnedDegraded206(t *testing.T) {
	errDisk := errors.New("injected: no space left on device")
	ffs := &shard.FaultFS{Fail: func(op shard.Op, path string) error {
		if op == shard.OpRename && strings.Contains(path, "shard-2-of-3.json") {
			return errDisk
		}
		return nil
	}}
	_, ts := newTestServer(t, Config{
		Workers:         2,
		SpoolDir:        t.TempDir(),
		CheckpointEvery: 2,
		ShardRetries:    -1,
		shardFS:         ffs,
	})
	chain, _ := json.Marshal(append(wireChain, `E[m,n] = D[m,k] * T[k,n] {M=16,K=4,N=4}`))
	body := fmt.Sprintf(`{"segmentation":{"einsums":%s},"shards":3,"allow_partial":true}`, chain)
	checkWire(t, "degraded", ts.URL, body, http.StatusPartialContent)
}

// checkWire posts body, requires status, and checks the response against
// the re-encoded CurveResponse and the golden file testdata/wire/NAME.json.
func checkWire(t *testing.T, name, url, body string, status int) {
	t.Helper()
	st, data := postCurve(t, url, body)
	if st != status {
		t.Fatalf("%s: status %d, want %d: %s", name, st, status, data)
	}
	var resp CurveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("%s: decoding %s: %v", name, data, err)
	}
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want.Bytes()) {
		t.Fatalf("%s: body differs from encoding/json of its CurveResponse:\n got %s\nwant %s", name, data, want.Bytes())
	}

	got := elapsedField.ReplaceAll(data, []byte(`"elapsed_ms":0`))
	path := filepath.Join("testdata", "wire", name+".json")
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (run with -update to record)", name, err)
	}
	if !bytes.Equal(got, golden) {
		t.Fatalf("%s: body differs from %s:\n got %s\nwant %s", name, path, got, golden)
	}
}

// TestAppendJSONString checks the header's string encoding against
// encodeJSON one character class at a time, so the verbatim fast path
// cannot pass a character encoding/json would escape.
func TestAppendJSONString(t *testing.T) {
	for _, s := range []string{
		"", "B[m,n] = A[m,k] * W[k,n] {M=32 K=24 N=16}", `q"q`, `b\s`, "<&>",
		"tab\tnl\n", "\x01\x1f", "del\x7f", "é", "\u2028\u2029", "bad\xffutf8",
	} {
		want, err := encodeJSON(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), s); string(got) != "x"+string(want[:len(want)-1]) {
			t.Errorf("appendJSONString(%q) = %s, want x%s", s, got, want[:len(want)-1])
		}
	}
}
