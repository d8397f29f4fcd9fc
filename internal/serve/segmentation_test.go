package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/shard"
)

// segEinsums is a three-op producer-consumer chain in expression syntax;
// its segmentation mask space has 2^2 = 4 entries.
var segEinsums = []string{
	`B[m,n] = A[m,k] * W[k,n] {M=16,K=4,N=8}`,
	`C[m,n] = B[m,k] * V[k,n] {M=16,K=8,N=8}`,
	`D[m,n] = C[m,k] * U[k,n] {M=16,K=8,N=4}`,
}

// segTestChain rebuilds the served chain in-process, exactly as the
// server does: FromEinsums over the same expressions.
func segTestChain(t *testing.T, exprs []string) *fusion.Chain {
	t.Helper()
	es := make([]*einsum.Einsum, len(exprs))
	for i, s := range exprs {
		es[i] = einsum.MustParse(s)
	}
	c, err := fusion.FromEinsums("chain", es...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestServedSegmentationMatchesInProcess: the segmentation workload kind
// — in-process and sharded — returns the byte-identical best curve of
// fusion.BestSegmentationStats, and the in-process envelope carries every
// per-segmentation curve of the study.
func TestServedSegmentationMatchesInProcess(t *testing.T) {
	c := segTestChain(t, segEinsums)
	perOp := c.PerOpCurves(bound.Options{Workers: 2})
	want, _, err := fusion.BestSegmentationStats(c, perOp, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantBytes, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	study, _, err := fusion.SegmentationStudyStats(c, perOp, 2)
	if err != nil {
		t.Fatal(err)
	}

	spool := t.TempDir()
	_, ts := newTestServer(t, Config{SpoolDir: spool, CheckpointEvery: 2})

	body := fmt.Sprintf(`{"segmentation":{"einsums":[%q,%q,%q]}}`,
		segEinsums[0], segEinsums[1], segEinsums[2])
	status, data := postCurve(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	env := decodeEnvelope(t, data)
	if env.Kind != "segmentation" {
		t.Fatalf("kind %q, want segmentation", env.Kind)
	}
	if string(env.Curve) != string(wantBytes) {
		t.Fatalf("served segmentation curve differs from fusion.BestSegmentationStats\n got %s\nwant %s", env.Curve, wantBytes)
	}

	// The in-process envelope carries the whole study, segmentation by
	// segmentation, byte-identical to SegmentationStudyStats.
	var segEnv struct {
		Segments []struct {
			Label string          `json:"label"`
			Curve json.RawMessage `json:"curve"`
		} `json:"segments"`
	}
	if err := json.Unmarshal(data, &segEnv); err != nil {
		t.Fatal(err)
	}
	if len(segEnv.Segments) != len(study) {
		t.Fatalf("%d served segments, study has %d", len(segEnv.Segments), len(study))
	}
	for i, sr := range study {
		if segEnv.Segments[i].Label != sr.Label {
			t.Fatalf("segment %d label %q, want %q", i, segEnv.Segments[i].Label, sr.Label)
		}
		wantSeg, err := json.Marshal(sr.Curve)
		if err != nil {
			t.Fatal(err)
		}
		if string(segEnv.Segments[i].Curve) != string(wantSeg) {
			t.Fatalf("segment %d (%s) curve differs from in-process study", i, sr.Label)
		}
	}

	// Sharded path (no_cache forces a fresh flight past the cached
	// in-process result): merged best curve is byte-identical, the
	// per-segmentation detail is absent, and the spool is cleaned.
	status, data = postCurve(t, ts.URL, fmt.Sprintf(
		`{"segmentation":{"einsums":[%q,%q,%q]},"shards":2,"no_cache":true}`,
		segEinsums[0], segEinsums[1], segEinsums[2]))
	if status != http.StatusOK {
		t.Fatalf("sharded status %d: %s", status, data)
	}
	env = decodeEnvelope(t, data)
	if env.Shards != 2 {
		t.Fatalf("shards %d, want 2", env.Shards)
	}
	if string(env.Curve) != string(wantBytes) {
		t.Fatalf("sharded segmentation curve differs from in-process study\n got %s\nwant %s", env.Curve, wantBytes)
	}
	if strings.Contains(string(data), `"segments"`) {
		t.Fatal("sharded response carries per-segmentation detail")
	}
	leftovers, err := filepath.Glob(filepath.Join(spool, "*", "shard-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("spool not cleaned after sharded segmentation: %v", leftovers)
	}
}

// TestServedSegmentationDegraded206: an allow_partial sharded
// segmentation whose shard fleet loses a shard permanently answers 206
// with the degraded coverage envelope, keeps the spool as the resume
// point, caches nothing, and reports exactly the coverage a degraded
// merge of the spooled partial frontiers computes (what the shardmerge
// CLI's -allow-partial would print).
func TestServedSegmentationDegraded206(t *testing.T) {
	exprs := []string{
		`B[m,n] = A[m,k] * W[k,n] {M=16,K=4,N=8}`,
		`C[m,n] = B[m,k] * V[k,n] {M=16,K=8,N=8}`,
		`D[m,n] = C[m,k] * U[k,n] {M=16,K=8,N=4}`,
		`E[m,n] = D[m,k] * T[k,n] {M=16,K=4,N=4}`,
	}

	// Shard 2 of 3 (index 1) can never commit a checkpoint: every rename
	// of its partial-frontier file fails, as on a disk running full. With
	// no retry budget that shard fails permanently and leaves no file.
	errDisk := errors.New("injected: no space left on device")
	ffs := &shard.FaultFS{Fail: func(op shard.Op, path string) error {
		if op == shard.OpRename && strings.Contains(path, "shard-2-of-3.json") {
			return errDisk
		}
		return nil
	}}
	spool := t.TempDir()
	s, ts := newTestServer(t, Config{
		Workers:         2,
		SpoolDir:        spool,
		CheckpointEvery: 2,
		ShardRetries:    -1,
		shardFS:         ffs,
	})

	body := fmt.Sprintf(
		`{"segmentation":{"einsums":[%q,%q,%q,%q]},"shards":3,"allow_partial":true}`,
		exprs[0], exprs[1], exprs[2], exprs[3])
	status, data := postCurve(t, ts.URL, body)
	if status != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", status, data)
	}

	var env struct {
		curveEnvelope
		Degraded         bool    `json:"degraded"`
		Items            int64   `json:"items"`
		CoveredIndices   int64   `json:"covered_indices"`
		CoveredFraction  float64 `json:"covered_fraction"`
		MissingShards    []int   `json:"missing_shards"`
		IncompleteShards []int   `json:"incomplete_shards"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding 206 envelope %s: %v", data, err)
	}
	if !env.Degraded {
		t.Fatalf("206 envelope without degraded marker: %s", data)
	}
	if env.Items != 8 {
		t.Fatalf("items %d, want 8 (2^3 segmentations)", env.Items)
	}
	if env.CoveredIndices <= 0 || env.CoveredIndices >= env.Items {
		t.Fatalf("covered_indices %d of %d, want a strict partial cover", env.CoveredIndices, env.Items)
	}
	if len(env.MissingShards) != 1 || env.MissingShards[0] != 1 {
		t.Fatalf("missing_shards %v, want [1]", env.MissingShards)
	}
	// The taint travels on the curve itself, not just the envelope.
	if !strings.Contains(string(env.Curve), `"degraded":true`) {
		t.Fatalf("degraded response curve not marked degraded: %s", env.Curve)
	}

	// The spool survives as the resume point, and a best-effort merge of
	// exactly those files reproduces the served coverage numbers — the
	// HTTP envelope and the shardmerge CLI agree.
	matches, err := filepath.Glob(filepath.Join(spool, "*", "shard-*-of-3.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("spool empty after degraded merge; resume point lost")
	}
	d, err := shard.MergeDegradedFiles(matches...)
	if err != nil {
		t.Fatal(err)
	}
	if d.CoveredFraction != env.CoveredFraction {
		t.Fatalf("served covered_fraction %v, spool merge computes %v", env.CoveredFraction, d.CoveredFraction)
	}
	if d.CoveredIndices != env.CoveredIndices {
		t.Fatalf("served covered_indices %d, spool merge computes %d", env.CoveredIndices, d.CoveredIndices)
	}
	wantCurve, err := json.Marshal(d.Curve)
	if err != nil {
		t.Fatal(err)
	}
	if string(env.Curve) != string(wantCurve) {
		t.Fatalf("served degraded curve differs from spool merge\n got %s\nwant %s", env.Curve, wantCurve)
	}

	// Degraded results are never cached: a retry must resume the spool,
	// not replay the incomplete answer.
	if got := s.mem.len(); got != 0 {
		t.Fatalf("degraded result entered the cache (%d entries)", got)
	}
}

// longChainEinsums renders an n-op chain of 2x2 GEMMs as a JSON list of
// einsum strings.
func longChainEinsums(n int) string {
	name := func(prefix string, i int) string { return fmt.Sprintf("%s%c%c", prefix, 'a'+i/26, 'a'+i%26) }
	var exprs []string
	for i := 0; i < n; i++ {
		exprs = append(exprs, fmt.Sprintf("%q", fmt.Sprintf("%s[m,n] = %s[m,k] * %s[k,n] {M=2,K=2,N=2}",
			name("X", i+1), name("X", i), name("W", i))))
	}
	return "[" + strings.Join(exprs, ",") + "]"
}

// expectOverflow400 posts body to a fresh server and requires a 400
// invalid_workload naming the overflow, with no miss and no derivation
// counted.
func expectOverflow400(t *testing.T, body string) {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	status, data := postCurve(t, ts.URL, body)
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", status, data)
	}
	if e := decodeError(t, data); e.Code != "invalid_workload" || !strings.Contains(e.Message, "overflows") {
		t.Fatalf("error %+v, want invalid_workload naming the overflow", e)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.CacheMisses != 0 || st.Derivations != 0 {
		t.Fatalf("misses=%d derivations=%d, want 0 and 0: a rejected request must not fly", st.CacheMisses, st.Derivations)
	}
}

// TestServedSegmentationSpaceOverflowIs400: a 64-op segmentation chain
// passes validation but its mask space overflows fusion.SegmentationSpace.
// The server sizes the mapspace only on a memory miss, before joining a
// flight, and must still answer that error as 400 invalid_workload with
// no flight started.
func TestServedSegmentationSpaceOverflowIs400(t *testing.T) {
	expectOverflow400(t, fmt.Sprintf(`{"segmentation":{"einsums":%s}}`, longChainEinsums(64)))
}

// TestServedTiledFusionSpaceOverflowIs400: 63- and 64-op chains overflow
// fusion.TiledFusionSpace's 2^E residency subsets. They must be refused
// like an overflowing segmentation, never served (and cached) as an empty
// curve.
func TestServedTiledFusionSpaceOverflowIs400(t *testing.T) {
	for _, n := range []int{63, 64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			expectOverflow400(t, fmt.Sprintf(`{"chain":{"einsums":%s}}`, longChainEinsums(n)))
		})
	}
}

// TestServedTilingSpaceOverflowIs400: an 8-rank Einsum with every extent
// 720720 (240 divisors each) passes validation, but its two-level tiling
// space and its three-split space both overflow int64. Sizing must fail,
// and the server must answer 400 invalid_workload, not derive over a
// wrapped negative space.
func TestServedTilingSpaceOverflowIs400(t *testing.T) {
	const expr = `Z[a,b,c,d] = X[a,b,e,f,g,h] * Y[c,d,e,f,g,h] ` +
		`{A=720720 B=720720 C=720720 D=720720 E=720720 F=720720 G=720720 H=720720}`
	t.Run("bound", func(t *testing.T) {
		expectOverflow400(t, fmt.Sprintf(`{"einsum":%q}`, expr))
	})
	t.Run("multilevel", func(t *testing.T) {
		expectOverflow400(t, fmt.Sprintf(`{"einsum":%q,"multilevel":{"l1_cap_bytes":1024}}`, expr))
	})
}
