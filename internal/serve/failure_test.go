package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bound"
	"repro/internal/einsum"
	"repro/internal/shard"
	"repro/internal/workload"
)

// TestFailureTable drives every failure class against both endpoints
// and pins what the client sees: status, error code and Retry-After
// (rounded up to whole seconds). A client that hung up gets no body.
func TestFailureTable(t *testing.T) {
	endpoints := []struct {
		path string
		body func(m, timeoutMS int64) string
		// arm makes the endpoint's derivation call act once it runs.
		arm func(t *testing.T, cfg *Config, act func())
	}{
		{
			path: "/v1/curve",
			body: func(m, timeoutMS int64) string {
				return fmt.Sprintf(`{"gemm":{"m":%d,"k":12,"n":8},"timeout_ms":%d}`, m, timeoutMS)
			},
			arm: func(t *testing.T, cfg *Config, act func()) {
				cfg.deriveWrap = func(*derivation, deriveFn) deriveFn {
					return func(ctx context.Context) (deriveOut, error) {
						act()
						<-ctx.Done()
						return deriveOut{}, ctx.Err()
					}
				}
			},
		},
		{
			path: "/v1/shard",
			body: func(m, timeoutMS int64) string {
				raw, err := workload.NewBound(einsum.GEMM("gemm", m, 12, 8), bound.Options{}).Encode()
				if err != nil {
					panic(err)
				}
				body, err := json.Marshal(ShardRequest{Spec: raw, ShardCount: 1, TimeoutMS: timeoutMS})
				if err != nil {
					panic(err)
				}
				return string(body)
			},
			arm: func(t *testing.T, cfg *Config, act func()) {
				cfg.WorkerDir = t.TempDir()
				cfg.CheckpointEvery = 1
				cfg.OnCheckpoint = func(shard.Manifest) { act() }
			},
		},
	}
	classes := []struct {
		name      string
		timeoutMS int64
		// act runs inside the derivation; hangUp cancels the request.
		act    func(s *Server, hangUp context.CancelFunc, gate <-chan struct{})
		status int
		code   string // empty: no body at all
		retry  string
	}{
		{name: "draining", status: http.StatusServiceUnavailable, code: "draining", retry: "1"},
		{name: "saturated", act: func(_ *Server, _ context.CancelFunc, gate <-chan struct{}) { <-gate },
			status: http.StatusTooManyRequests, code: "saturated", retry: "1"},
		{name: "panic", act: func(*Server, context.CancelFunc, <-chan struct{}) { panic("injected failure") },
			status: http.StatusInternalServerError, code: "panic"},
		{name: "deadline", timeoutMS: 20, act: func(*Server, context.CancelFunc, <-chan struct{}) { time.Sleep(300 * time.Millisecond) },
			status: http.StatusGatewayTimeout, code: "deadline"},
		{name: "shutdown", act: func(s *Server, _ context.CancelFunc, _ <-chan struct{}) { s.Close() },
			status: http.StatusServiceUnavailable, code: "draining", retry: "1"},
		{name: "hang-up", act: func(_ *Server, hangUp context.CancelFunc, _ <-chan struct{}) { hangUp() }},
	}
	for _, ep := range endpoints {
		for _, cl := range classes {
			t.Run(cl.name+ep.path, func(t *testing.T) {
				ctx, hangUp := context.WithCancel(context.Background())
				defer hangUp()
				gate := make(chan struct{})
				var s *Server
				var once sync.Once
				cfg := Config{Workers: 1, MaxConcurrent: 1, MaxQueue: 1, QueueWait: 100 * time.Millisecond}
				ep.arm(t, &cfg, func() { once.Do(func() { cl.act(s, hangUp, gate) }) })
				s = New(cfg)
				t.Cleanup(func() { stop(s) })
				serve := func(ctx context.Context, m int64) *httptest.ResponseRecorder {
					rec := httptest.NewRecorder()
					req := httptest.NewRequest(http.MethodPost, ep.path, strings.NewReader(ep.body(m, cl.timeoutMS)))
					s.Handler().ServeHTTP(rec, req.WithContext(ctx))
					return rec
				}

				var rec *httptest.ResponseRecorder
				switch cl.name {
				case "draining":
					if err := s.Drain(context.Background()); err != nil {
						t.Fatal(err)
					}
					rec = serve(ctx, 16)
				case "saturated":
					// A blocker holds the only slot; the probe queues and is
					// shed when its 100 ms wait budget runs out.
					blocked := make(chan struct{})
					go func() {
						defer close(blocked)
						serve(ctx, 16)
					}()
					waitFor(t, "blocker holds the slot", func() bool { return s.adm.inFlight() == 1 })
					rec = serve(context.Background(), 17)
					hangUp()
					close(gate)
					<-blocked
				default:
					rec = serve(ctx, 16)
				}

				if cl.code == "" {
					if rec.Body.Len() != 0 || rec.Header().Get("Content-Type") != "" {
						t.Fatalf("hung-up client was answered: %d %s", rec.Code, rec.Body)
					}
					return
				}
				if rec.Code != cl.status {
					t.Fatalf("status %d, want %d: %s", rec.Code, cl.status, rec.Body)
				}
				if ei := decodeError(t, rec.Body.Bytes()); ei.Code != cl.code {
					t.Fatalf("code %q, want %q (%s)", ei.Code, cl.code, ei.Message)
				}
				if got := rec.Header().Get("Retry-After"); got != cl.retry {
					t.Fatalf("Retry-After %q, want %q", got, cl.retry)
				}
			})
		}
	}
}

// TestJoinAbandonedFlight is the regression test for a request that
// arrives while an identical, abandoned flight winds down: the first
// request's deadline expired, so its flight was cancelled, and the
// second request must wait it out and derive afresh — a 200, not the
// abandoned flight's cancellation answered as 503 draining.
func TestJoinAbandonedFlight(t *testing.T) {
	windingDown := make(chan struct{})
	release := make(chan struct{})
	var flights atomic.Int32
	s, ts := newTestServer(t, Config{
		deriveWrap: func(_ *derivation, fn deriveFn) deriveFn {
			if flights.Add(1) > 1 {
				return fn
			}
			return func(ctx context.Context) (deriveOut, error) {
				<-ctx.Done()
				close(windingDown)
				<-release // hold the wind-down
				return deriveOut{}, ctx.Err()
			}
		},
	})

	if status, data := postCurve(t, ts.URL, `{"gemm":{"m":45,"k":12,"n":8},"timeout_ms":50}`); status != http.StatusGatewayTimeout {
		t.Fatalf("first request: status %d, want 504: %s", status, data)
	}
	<-windingDown

	type outcome struct {
		status int
		data   []byte
	}
	second := make(chan outcome, 1)
	go func() {
		st, data := postCurve(t, ts.URL, `{"gemm":{"m":45,"k":12,"n":8}}`)
		second <- outcome{st, data}
	}()
	waitFor(t, "second request reaches the flight table", func() bool { return s.Snapshot().CacheMisses == 2 })
	time.Sleep(50 * time.Millisecond)
	close(release)

	o := <-second
	if o.status != http.StatusOK {
		t.Fatalf("request joining an abandoned flight: status %d, want 200: %s", o.status, o.data)
	}
	if got, want := string(decodeEnvelope(t, o.data).Curve), gemmWant(t, 45, 12, 8); got != want {
		t.Fatalf("curve differs from bound.Derive\n got %s\nwant %s", got, want)
	}
	if got := flights.Load(); got != 2 {
		t.Fatalf("%d flights, want the abandoned one and one fresh", got)
	}
}
