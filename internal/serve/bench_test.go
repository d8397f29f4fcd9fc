package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/einsum"
	"repro/internal/llm"
)

// benchMix is the request mix of the round-trip benchmarks: GPT-3-6.7b's
// block GEMMs at a decode batch of 8 tokens, and the decode attention BMMs
// of 8 sequences over a 2,048-token context (the serve-zipf catalog's
// shapes; each derives in milliseconds).
func benchMix(b *testing.B, noCache bool) [][]byte {
	m := llm.GPT3_6_7B()
	const batch, context = 8, 2048
	reqs := []Request{
		{GEMM: &GEMMSpec{M: batch, K: m.D, N: m.D}},
		{GEMM: &GEMMSpec{M: batch, K: m.D, N: m.Hidden}},
		{GEMM: &GEMMSpec{M: batch, K: m.Hidden, N: m.D}},
		{Einsum: einsum.BMM("bmm_QK", batch*m.Heads, 1, m.HeadDim, context).String()},
		{Einsum: einsum.BMM("bmm_QKV", batch*m.Heads, 1, context, m.HeadDim).String()},
	}
	bodies := make([][]byte, len(reqs))
	for i := range reqs {
		reqs[i].NoCache = noCache
		body, err := json.Marshal(&reqs[i])
		if err != nil {
			b.Fatal(err)
		}
		bodies[i] = body
	}
	return bodies
}

// serveOnce runs one POST /v1/curve through the handler in process and
// fails the benchmark on anything but a 200 with the expected cached flag.
func serveOnce(b *testing.B, h http.Handler, body []byte, cached bool) {
	req, err := http.NewRequest(http.MethodPost, "/v1/curve", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	want := []byte(`"cached":false`)
	if cached {
		want = []byte(`"cached":true`)
	}
	if !bytes.Contains(rec.Body.Bytes(), want) {
		b.Fatalf("response is not %s: %.200s", want, rec.Body.Bytes())
	}
}

// benchServe warms s with every request of the mix (when warm), then
// times the handler round trip over the mix in turn.
func benchServe(b *testing.B, s *Server, bodies [][]byte, warm, cached bool) {
	b.Cleanup(s.Close)
	h := s.Handler()
	if warm {
		for _, body := range bodies {
			serveOnce(b, h, body, false)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveOnce(b, h, bodies[i%len(bodies)], cached)
	}
}

// BenchmarkCurveMemHit is a memory-LRU hit: no derivation and no disk
// read, only request decoding, identity, and the response envelope.
func BenchmarkCurveMemHit(b *testing.B) {
	benchServe(b, New(Config{Workers: 1}), benchMix(b, false), true, true)
}

// BenchmarkCurveDiskHit is a durable-store hit: a one-entry memory LRU
// cycled through the mix misses every time, so each request reads and
// verifies its entry from the store directory.
func BenchmarkCurveDiskHit(b *testing.B) {
	s := New(Config{Workers: 1, CacheEntries: 1, StoreDir: b.TempDir()})
	if s.disk == nil {
		b.Fatal("store did not open")
	}
	benchServe(b, s, benchMix(b, false), true, true)
}

// BenchmarkCurveMiss derives every request (no_cache) on one traversal
// worker.
func BenchmarkCurveMiss(b *testing.B) {
	benchServe(b, New(Config{Workers: 1}), benchMix(b, true), false, false)
}
