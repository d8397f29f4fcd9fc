package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/fusion"
	"repro/internal/multilevel"
)

// newTestServer builds a Server plus an httptest frontend, both torn
// down with the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Workers == 0 {
		cfg.Workers = 2
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		stop(s)
	})
	return s, ts
}

// stop closes s and waits for its cancelled flights to wind down: a
// flight outlives the requests that left it, and must not write into a
// test's temporary directories after the test has removed them.
func stop(s *Server) {
	s.Close()
	_ = s.Drain(context.Background())
}

// curveEnvelope decodes the response, keeping the curve as raw bytes for
// byte-identity checks.
type curveEnvelope struct {
	Workload  string          `json:"workload"`
	Kind      string          `json:"kind"`
	Digest    string          `json:"digest"`
	Cached    bool            `json:"cached"`
	Shards    int             `json:"shards"`
	Evaluated int64           `json:"evaluated"`
	Points    int             `json:"points"`
	Curve     json.RawMessage `json:"curve"`
}

// postCurve sends a request body and returns status plus raw response.
func postCurve(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/curve", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decodeEnvelope(t *testing.T, data []byte) curveEnvelope {
	t.Helper()
	var env curveEnvelope
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decoding response %s: %v", data, err)
	}
	return env
}

func decodeError(t *testing.T, data []byte) ErrorInfo {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("decoding error response %s: %v", data, err)
	}
	return er.Error
}

// TestServedCurveMatchesDerive is the acceptance core: the served GEMM
// curve — uncached and cached — is byte-identical to bound.Derive.
func TestServedCurveMatchesDerive(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	want, err := json.Marshal(bound.Derive(e, bound.Options{Workers: 2}).Curve)
	if err != nil {
		t.Fatal(err)
	}

	body := `{"gemm":{"m":32,"k":24,"n":16}}`
	status, data := postCurve(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	env := decodeEnvelope(t, data)
	if env.Cached {
		t.Fatal("first request reported cached")
	}
	if env.Kind != "bound" {
		t.Fatalf("kind %q, want bound", env.Kind)
	}
	if string(env.Curve) != string(want) {
		t.Fatalf("served curve differs from bound.Derive\n got %s\nwant %s", env.Curve, want)
	}

	status, data = postCurve(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("cached status %d: %s", status, data)
	}
	env2 := decodeEnvelope(t, data)
	if !env2.Cached {
		t.Fatal("second identical request was not served from cache")
	}
	if string(env2.Curve) != string(want) {
		t.Fatalf("cached curve differs from bound.Derive")
	}
	if env2.Digest != env.Digest {
		t.Fatalf("digest changed between identical requests: %s vs %s", env.Digest, env2.Digest)
	}
}

// TestServedMultiLevelAndChain pins the other two derivation kinds to
// their in-process engines.
func TestServedMultiLevelAndChain(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	e := einsum.GEMM("gemm_24x16x12", 24, 16, 12)
	ml, err := multilevel.Derive(e, 1<<10, multilevel.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	wantML, _ := json.Marshal(ml.DRAM)
	status, data := postCurve(t, ts.URL,
		`{"gemm":{"m":24,"k":16,"n":12},"multilevel":{"l1_cap_bytes":1024}}`)
	if status != http.StatusOK {
		t.Fatalf("multilevel status %d: %s", status, data)
	}
	env := decodeEnvelope(t, data)
	if env.Kind != "multilevel" {
		t.Fatalf("kind %q, want multilevel", env.Kind)
	}
	if string(env.Curve) != string(wantML) {
		t.Fatalf("served multilevel curve differs from multilevel.Derive")
	}

	g1 := `B[m,n] = A[m,k] * W[k,n] {M=64,K=16,N=12}`
	g2 := `C[m,n] = B[m,k] * V[k,n] {M=64,K=12,N=8}`
	e1 := einsum.MustParse(g1)
	e2 := einsum.MustParse(g2)
	c, err := fusion.FromEinsums("chain", e1, e2)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := fusion.TiledFusion(c)
	if err != nil {
		t.Fatal(err)
	}
	wantChain, _ := json.Marshal(cv)
	status, data = postCurve(t, ts.URL, fmt.Sprintf(
		`{"chain":{"einsums":[%q,%q]}}`, g1, g2))
	if status != http.StatusOK {
		t.Fatalf("chain status %d: %s", status, data)
	}
	env = decodeEnvelope(t, data)
	if env.Kind != "fusion-tiled" {
		t.Fatalf("kind %q, want fusion-tiled", env.Kind)
	}
	if string(env.Curve) != string(wantChain) {
		t.Fatalf("served chain curve differs from fusion.TiledFusion")
	}
}

// TestCacheStampede is the single-flight acceptance test: 100 concurrent
// identical requests cost exactly one derivation.
func TestCacheStampede(t *testing.T) {
	var calls atomic.Int64
	gate := make(chan struct{})
	cfg := Config{
		deriveWrap: func(d *derivation, fn deriveFn) deriveFn {
			return func(ctx context.Context) (deriveOut, error) {
				calls.Add(1)
				select {
				case <-gate:
				case <-ctx.Done():
					return deriveOut{}, ctx.Err()
				}
				return fn(ctx)
			}
		},
	}
	s, ts := newTestServer(t, cfg)

	const n = 100
	body := `{"gemm":{"m":16,"k":12,"n":8}}`
	statuses := make([]int, n)
	cached := make([]bool, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, data := postCurve(t, ts.URL, body)
			statuses[i] = status
			if status == http.StatusOK {
				cached[i] = decodeEnvelope(t, data).Cached
			}
		}(i)
	}

	// Wait until every request has attached to the one flight, then
	// release the derivation.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.mem.mu.Lock()
		var waiters, flights int
		for _, f := range s.mem.flights {
			flights++
			waiters = f.waiters
		}
		s.mem.mu.Unlock()
		if flights == 1 && waiters == n {
			break
		}
		if flights > 1 {
			t.Fatalf("%d concurrent flights for one workload", flights)
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never converged on one flight (flights=%d waiters=%d)", flights, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()

	for i, status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, status)
		}
		if cached[i] {
			t.Fatalf("request %d reported cached while attached to the live flight", i)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d derivations for %d identical concurrent requests, want 1", got, n)
	}

	// A late request is a plain cache hit.
	status, data := postCurve(t, ts.URL, body)
	if status != http.StatusOK || !decodeEnvelope(t, data).Cached {
		t.Fatalf("late request not served from cache (status %d: %s)", status, data)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("late request re-derived (calls=%d)", got)
	}
}

// TestCacheLRUEviction checks capacity bounds: the coldest result is
// evicted and re-derived, recently used ones are not.
func TestCacheLRUEviction(t *testing.T) {
	var calls atomic.Int64
	cfg := Config{
		CacheEntries: 2,
		deriveWrap: func(d *derivation, fn deriveFn) deriveFn {
			return func(ctx context.Context) (deriveOut, error) {
				calls.Add(1)
				return fn(ctx)
			}
		},
	}
	_, ts := newTestServer(t, cfg)

	bodies := []string{
		`{"gemm":{"m":8,"k":6,"n":4}}`,
		`{"gemm":{"m":9,"k":6,"n":4}}`,
		`{"gemm":{"m":10,"k":6,"n":4}}`,
	}
	for i, b := range bodies {
		if status, data := postCurve(t, ts.URL, b); status != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", i, status, data)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("seeding made %d derivations, want 3", got)
	}
	// Workload 0 was evicted by workload 2 (capacity 2): re-derived.
	if status, data := postCurve(t, ts.URL, bodies[0]); status != http.StatusOK || decodeEnvelope(t, data).Cached {
		t.Fatalf("evicted workload served from cache (status %d)", status)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("evicted workload did not re-derive (calls=%d)", got)
	}
	// Workload 2 is still warm.
	if status, data := postCurve(t, ts.URL, bodies[2]); status != http.StatusOK || !decodeEnvelope(t, data).Cached {
		t.Fatalf("warm workload not served from cache (status %d)", status)
	}
	if got := calls.Load(); got != 4 {
		t.Fatalf("warm workload re-derived (calls=%d)", got)
	}
}

// TestRequestValidation sweeps the 400 taxonomy.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxShards: 4})
	cases := []struct {
		name string
		body string
		code string
	}{
		{"no workload", `{}`, "invalid_workload"},
		{"two workloads", `{"einsum":"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4}","gemm":{"m":4,"k":4,"n":4}}`, "invalid_workload"},
		{"unknown field", `{"gemm":{"m":4,"k":4,"n":4},"turbo":true}`, "invalid_request"},
		{"malformed json", `{"gemm":`, "invalid_request"},
		{"negative timeout", `{"gemm":{"m":4,"k":4,"n":4},"timeout_ms":-1}`, "invalid_request"},
		{"too many shards", `{"gemm":{"m":4,"k":4,"n":4},"shards":9}`, "invalid_request"},
		{"shards without spool", `{"gemm":{"m":4,"k":4,"n":4},"shards":2}`, "invalid_request"},
		{"bad einsum", `{"einsum":"nonsense"}`, "invalid_workload"},
		{"bad gemm shape", `{"gemm":{"m":0,"k":4,"n":4}}`, "invalid_workload"},
		{"chain with multilevel", `{"chain":{"einsums":["B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4}"]},"multilevel":{"l1_cap_bytes":64}}`, "invalid_workload"},
		{"chain with options", `{"chain":{"einsums":["B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4}"]},"options":{"charge_spills":true}}`, "invalid_workload"},
		{"empty chain", `{"chain":{"einsums":[]}}`, "invalid_workload"},
		{"multilevel zero cap", `{"gemm":{"m":4,"k":4,"n":4},"multilevel":{"l1_cap_bytes":0}}`, "invalid_workload"},
		{"multilevel with options", `{"gemm":{"m":4,"k":4,"n":4},"multilevel":{"l1_cap_bytes":64},"options":{"charge_spills":true}}`, "invalid_workload"},
		{"conflicting options", `{"gemm":{"m":4,"k":4,"n":4},"options":{"imperfect_extra":4,"charge_spills":true}}`, "invalid_workload"},
		{"empty segmentation", `{"segmentation":{"einsums":[]}}`, "invalid_workload"},
		{"segmentation with options", `{"segmentation":{"einsums":["B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4}"]},"options":{"charge_spills":true}}`, "invalid_workload"},
		{"segmentation with multilevel", `{"segmentation":{"einsums":["B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4}"]},"multilevel":{"l1_cap_bytes":64}}`, "invalid_workload"},
		{"allow_partial without shards", `{"gemm":{"m":4,"k":4,"n":4},"allow_partial":true}`, "invalid_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, data := postCurve(t, ts.URL, tc.body)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", status, data)
			}
			if ei := decodeError(t, data); ei.Code != tc.code {
				t.Fatalf("code %q, want %q (%s)", ei.Code, tc.code, ei.Message)
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/curve")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/curve: status %d, want 405", resp.StatusCode)
	}
}

// TestHealthAndStats covers the observability endpoints.
func TestHealthAndStats(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", ep, resp.StatusCode)
		}
	}

	body := `{"gemm":{"m":16,"k":12,"n":8}}`
	for i := 0; i < 3; i++ {
		if status, data := postCurve(t, ts.URL, body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, data)
		}
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
	if st.Requests != 3 {
		t.Fatalf("requests %d, want 3", st.Requests)
	}
	if st.CacheHits != 2 || st.CacheMisses != 1 {
		t.Fatalf("hits/misses %d/%d, want 2/1", st.CacheHits, st.CacheMisses)
	}
	if st.CacheHitRate <= 0.5 {
		t.Fatalf("hit rate %f, want > 0.5", st.CacheHitRate)
	}
	if st.Derivations != 1 || st.MappingsEvaluated <= 0 {
		t.Fatalf("derivations=%d evaluated=%d, want 1 and > 0", st.Derivations, st.MappingsEvaluated)
	}
	if st.MappingsPerSec <= 0 {
		t.Fatalf("mappings/sec %f, want > 0", st.MappingsPerSec)
	}
	if st.CacheEntries != 1 {
		t.Fatalf("cache entries %d, want 1", st.CacheEntries)
	}
	if st.Draining {
		t.Fatal("fresh server reports draining")
	}
	_ = s
}
