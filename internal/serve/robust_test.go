package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/shard"
)

// blockOn returns a deriveWrap that parks derivations whose label
// contains marker until gate closes (or their context ends); everything
// else derives normally.
func blockOn(marker string, gate <-chan struct{}) func(*derivation, deriveFn) deriveFn {
	return func(d *derivation, fn deriveFn) deriveFn {
		if !strings.Contains(d.label, marker) {
			return fn
		}
		return func(ctx context.Context) (deriveOut, error) {
			select {
			case <-gate:
				return fn(ctx)
			case <-ctx.Done():
				return deriveOut{}, ctx.Err()
			}
		}
	}
}

// TestDeadlineExpiryMidTraversal: a request whose derivation outlives
// its deadline gets 504, the abandoned flight is cancelled (no waiters
// left), and the server stays healthy for the next request.
func TestDeadlineExpiryMidTraversal(t *testing.T) {
	gate := make(chan struct{}) // never closed: the derivation hangs until cancelled
	var cancelled atomic.Bool
	cfg := Config{
		deriveWrap: func(d *derivation, fn deriveFn) deriveFn {
			if !strings.Contains(d.label, "M=31") {
				return fn
			}
			return func(ctx context.Context) (deriveOut, error) {
				select {
				case <-gate:
					return fn(ctx)
				case <-ctx.Done():
					cancelled.Store(true)
					return deriveOut{}, ctx.Err()
				}
			}
		},
	}
	s, ts := newTestServer(t, cfg)

	status, data := postCurve(t, ts.URL, `{"gemm":{"m":31,"k":12,"n":8},"timeout_ms":50}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", status, data)
	}
	if ei := decodeError(t, data); ei.Code != "deadline" {
		t.Fatalf("code %q, want deadline", ei.Code)
	}

	// The sole waiter left, so the flight context must cancel the
	// derivation instead of letting it burn a slot forever.
	deadline := time.Now().Add(5 * time.Second)
	for !cancelled.Load() {
		if time.Now().After(deadline) {
			t.Fatal("abandoned derivation was never cancelled")
		}
		time.Sleep(time.Millisecond)
	}

	// Server is still fully functional.
	if status, data := postCurve(t, ts.URL, `{"gemm":{"m":16,"k":12,"n":8}}`); status != http.StatusOK {
		t.Fatalf("post-deadline request: status %d: %s", status, data)
	}
	if st := s.Snapshot(); st.DeadlineExpired != 1 {
		t.Fatalf("deadline_expired %d, want 1", st.DeadlineExpired)
	}
}

// TestSaturationSheds429: with one slot and a one-deep queue, the third
// concurrent derivation is refused immediately with 429 + Retry-After,
// and the queued one is refused once its wait budget expires.
func TestSaturationSheds429(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueWait:     100 * time.Millisecond,
		deriveWrap:    blockOn("M=33", gate),
	}
	s, ts := newTestServer(t, cfg)

	type outcome struct {
		status int
		data   []byte
	}
	blockerDone := make(chan outcome, 1)
	go func() {
		st, data := postCurve(t, ts.URL, `{"gemm":{"m":33,"k":12,"n":8}}`)
		blockerDone <- outcome{st, data}
	}()
	waitFor(t, "blocker holds the slot", func() bool { return s.adm.inFlight() == 1 })

	queuedDone := make(chan outcome, 1)
	go func() {
		st, data := postCurve(t, ts.URL, `{"gemm":{"m":34,"k":12,"n":8}}`)
		queuedDone <- outcome{st, data}
	}()
	waitFor(t, "second derivation queues", func() bool { return s.adm.queueDepth() == 1 })

	// Queue full: the third unique derivation is shed immediately.
	resp, err := http.Post(ts.URL+"/v1/curve", "application/json",
		strings.NewReader(`{"gemm":{"m":35,"k":12,"n":8}}`))
	if err != nil {
		t.Fatal(err)
	}
	var ei ErrorInfo
	func() {
		defer resp.Body.Close()
		var er ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		ei = er.Error
	}()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow status %d, want 429", resp.StatusCode)
	}
	if ei.Code != "saturated" {
		t.Fatalf("overflow code %q, want saturated", ei.Code)
	}
	// QueueWait is sub-second (100ms): a truncating Retry-After would
	// say "0" — retry immediately — and amplify the stampede the 429 is
	// shedding. The header must round up to at least one whole second.
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After")
	}
	if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After %q for a sub-second queue wait, want an integer >= 1", ra)
	}

	// The queued derivation exhausts its wait budget.
	o := <-queuedDone
	if o.status != http.StatusTooManyRequests {
		t.Fatalf("queued status %d, want 429: %s", o.status, o.data)
	}

	// Release the blocker; it completes normally.
	close(gate)
	o = <-blockerDone
	if o.status != http.StatusOK {
		t.Fatalf("blocker status %d: %s", o.status, o.data)
	}
	if st := s.Snapshot(); st.Saturated != 2 {
		t.Fatalf("saturated %d, want 2", st.Saturated)
	}
}

// TestPanicContainedToStructured500: a panicking derivation produces a
// structured 500 with the stack in the log, and the process keeps
// serving.
func TestPanicContainedToStructured500(t *testing.T) {
	var logMu sync.Mutex
	var logs []string
	cfg := Config{
		Logf: func(format string, args ...any) {
			logMu.Lock()
			logs = append(logs, fmt.Sprintf(format, args...))
			logMu.Unlock()
		},
		deriveWrap: func(d *derivation, fn deriveFn) deriveFn {
			if !strings.Contains(d.label, "M=37") {
				return fn
			}
			return func(ctx context.Context) (deriveOut, error) {
				panic("evaluator overflow (injected)")
			}
		},
	}
	s, ts := newTestServer(t, cfg)

	status, data := postCurve(t, ts.URL, `{"gemm":{"m":37,"k":12,"n":8}}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", status, data)
	}
	if ei := decodeError(t, data); ei.Code != "panic" {
		t.Fatalf("code %q, want panic", ei.Code)
	}

	logMu.Lock()
	joined := strings.Join(logs, "\n")
	logMu.Unlock()
	if !strings.Contains(joined, "evaluator overflow (injected)") {
		t.Fatalf("panic value not logged:\n%s", joined)
	}
	if !strings.Contains(joined, "robust_test") {
		t.Fatalf("panic stack not logged:\n%s", joined)
	}

	// Failed flights are not cached: a retry re-derives (and here
	// panics again), while other workloads are untouched.
	if status, _ := postCurve(t, ts.URL, `{"gemm":{"m":37,"k":12,"n":8}}`); status != http.StatusInternalServerError {
		t.Fatalf("retry status %d, want 500 again", status)
	}
	if status, data := postCurve(t, ts.URL, `{"gemm":{"m":16,"k":12,"n":8}}`); status != http.StatusOK {
		t.Fatalf("post-panic request: status %d: %s", status, data)
	}
	if st := s.Snapshot(); st.PanicsRecovered != 2 {
		t.Fatalf("panics_recovered %d, want 2", st.PanicsRecovered)
	}
}

// TestGracefulDrain: Drain closes admissions (503 + not-ready) while
// in-flight derivations run to completion and their clients get full
// answers.
func TestGracefulDrain(t *testing.T) {
	gate := make(chan struct{})
	cfg := Config{deriveWrap: blockOn("M=39", gate)}
	s, ts := newTestServer(t, cfg)

	type outcome struct {
		status int
		data   []byte
	}
	inflight := make(chan outcome, 1)
	go func() {
		st, data := postCurve(t, ts.URL, `{"gemm":{"m":39,"k":12,"n":8}}`)
		inflight <- outcome{st, data}
	}()
	waitFor(t, "derivation in flight", func() bool { return s.adm.inFlight() == 1 })

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "server draining", func() bool { return s.draining.Load() })

	// New work is refused; liveness stays green, readiness goes red.
	if status, data := postCurve(t, ts.URL, `{"gemm":{"m":16,"k":12,"n":8}}`); status != http.StatusServiceUnavailable {
		t.Fatalf("draining admission status %d, want 503: %s", status, data)
	} else if ei := decodeError(t, data); ei.Code != "draining" {
		t.Fatalf("draining code %q", ei.Code)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz while draining: %d, want 200", resp.StatusCode)
	}

	// The in-flight derivation finishes and its client gets the curve.
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	o := <-inflight
	if o.status != http.StatusOK {
		t.Fatalf("in-flight request after drain: status %d: %s", o.status, o.data)
	}
}

// TestKillAndResumeShardedDerivation is the checkpoint acceptance test:
// a server killed mid-way through a sharded derivation leaves resumable
// partial frontiers in the spool, and a restarted server completes the
// same request to the byte-identical curve while evaluating strictly
// less than the full space.
func TestKillAndResumeShardedDerivation(t *testing.T) {
	spool := t.TempDir()
	e := einsum.GEMM("gemm_32x24x16", 32, 24, 16)
	opts := bound.Options{Workers: 2}
	space, err := bound.Space(e, opts)
	if err != nil {
		t.Fatal(err)
	}
	full := bound.Derive(e, opts)
	fullMappings := full.Stats.MappingsEvaluated
	want, err := json.Marshal(full.Curve)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"gemm":{"m":32,"k":24,"n":16},"shards":2,"timeout_ms":60000}`

	// Server 1: kill (Close = cancel everything) after two checkpoint
	// flushes have committed progress to disk. The kill fires
	// synchronously inside the checkpoint hook, so cancellation is
	// guaranteed to land while the derivation still has work left.
	var flushes atomic.Int64
	var killOnce sync.Once
	var s1 *Server
	cfg1 := Config{
		Workers:         2,
		SpoolDir:        spool,
		CheckpointEvery: 3,
		OnCheckpoint: func(m shard.Manifest) {
			if flushes.Add(1) >= 2 {
				killOnce.Do(func() { s1.Close() })
			}
		},
	}
	srv1, ts1 := newTestServer(t, cfg1)
	s1 = srv1
	status, data := postCurve(t, ts1.URL, body)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("killed derivation: status %d, want 503: %s", status, data)
	}
	if ei := decodeError(t, data); ei.Code != "draining" {
		t.Fatalf("killed derivation code %q, want draining", ei.Code)
	}

	// The spool holds resumable partials for this derivation.
	matches, err := filepath.Glob(filepath.Join(spool, "*", "shard-*-of-2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no partial frontiers in spool after kill")
	}
	var completed int64
	for _, m := range matches {
		p, err := shard.ReadPartial(nil, m)
		if err != nil {
			t.Fatalf("partial %s unreadable after kill: %v", m, err)
		}
		completed += p.Manifest.CompletedThrough - p.Manifest.RangeLo
	}
	if completed <= 0 {
		t.Fatal("no committed progress in spooled partials")
	}
	if completed >= space {
		t.Fatalf("derivation completed (%d of %d) before the kill; test proves nothing", completed, space)
	}

	// Server 2 over the same spool: the same request resumes and
	// completes byte-identically, evaluating only the remainder.
	_, ts2 := newTestServer(t, Config{Workers: 2, SpoolDir: spool, CheckpointEvery: 3})
	status, data = postCurve(t, ts2.URL, body)
	if status != http.StatusOK {
		t.Fatalf("resumed derivation: status %d: %s", status, data)
	}
	env := decodeEnvelope(t, data)
	if string(env.Curve) != string(want) {
		t.Fatalf("resumed curve differs from bound.Derive\n got %s\nwant %s", env.Curve, want)
	}
	// Evaluated counts mappings (tiling index × loop-order variants);
	// a resumed run that skipped the committed blocks must evaluate
	// strictly fewer than a from-scratch derivation.
	if env.Evaluated <= 0 || env.Evaluated >= fullMappings {
		t.Fatalf("resumed server evaluated %d mappings, full derivation evaluates %d; want 0 < evaluated < full (proof it resumed, not restarted)",
			env.Evaluated, fullMappings)
	}

	// Success cleans the derivation's spool subdirectory.
	leftovers, err := filepath.Glob(filepath.Join(spool, "*", "shard-*-of-2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("spool not cleaned after completed derivation: %v", leftovers)
	}
}

// TestShardedMatchesInProcess: the spooled sharded path (no faults)
// returns the same bytes as the in-process path and cleans up after
// itself.
func TestShardedMatchesInProcess(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, SpoolDir: spool, CheckpointEvery: 5})

	e := einsum.GEMM("gemm_24x16x12", 24, 16, 12)
	want, err := json.Marshal(bound.Derive(e, bound.Options{Workers: 2}).Curve)
	if err != nil {
		t.Fatal(err)
	}
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":24,"k":16,"n":12},"shards":3}`)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	env := decodeEnvelope(t, data)
	if string(env.Curve) != string(want) {
		t.Fatalf("sharded curve differs from in-process derivation")
	}
	if env.Shards != 3 {
		t.Fatalf("shards %d, want 3", env.Shards)
	}
	entries, err := os.ReadDir(spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("spool not empty after success: %v", entries)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPrimeExtentSizedPromptly pins that sizing the mapspace before
// admission — outside any request deadline — stays cheap for extents whose
// divisors once took an O(√n) trial loop: a prime extent of 2^61 - 1 took
// about 6 s there. The extent here is the prime 2^59 - 55, just under the
// bound kind's count ceiling (2 · 3 tensors · MACs · 2 bytes), so the
// request is admitted and derives a positive curve: one point.
func TestPrimeExtentSizedPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	start := time.Now()
	status, data := postCurve(t, ts.URL, `{"gemm":{"m":576460752303423433,"k":1,"n":1}}`)
	if el := time.Since(start); el > time.Second {
		t.Fatalf("answered in %v, want under a second", el)
	}
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, data)
	}
	var resp CurveResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("decoding %s: %v", data, err)
	}
	pts := resp.Curve.Points()
	if len(pts) != 1 || pts[0].BufferBytes != 6 || pts[0].AccessBytes != 2*(2*576460752303423433+1) {
		t.Fatalf("curve %v, want one point at 6 buffer bytes and 2(2m+1) accesses", pts)
	}
}
