// Package chaos is the transport-fault seam of the fleet robustness
// suite: a scripted http.RoundTripper that injects the failure classes
// distributed fleets see in practice — hangs, connection refusals,
// mid-body partitions, 5xx flaps, Retry-After deferrals, and slow-drip
// responses — per worker, deterministically, in-process. The fleet
// coordinator takes any *http.Client (fleet.Options.Client), so a
// Transport wrapped in a client drives the whole dispatch path through
// real HTTP semantics with no test hooks inside the production code.
//
// Faults are keyed by worker base URL. A script is a finite sequence
// consumed one fault per request (then requests pass through); Always
// installs a persistent fault that applies once any script is drained.
// The zero set passes every request through untouched.
package chaos

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Fault intercepts one HTTP request. inner performs the real round
// trip; a fault may call it (to corrupt a genuine response), synthesize
// a response, or fail without any I/O.
type Fault interface {
	apply(req *http.Request, inner http.RoundTripper) (*http.Response, error)
}

// Transport is a scripted fault-injecting http.RoundTripper. It is safe
// for concurrent use; fault scripts are consumed atomically, so exactly
// one request observes each scripted slot even under concurrent
// dispatch.
type Transport struct {
	inner http.RoundTripper

	mu      sync.Mutex
	scripts map[string][]Fault
	always  map[string]Fault
}

// NewTransport wraps inner (nil means http.DefaultTransport).
func NewTransport(inner http.RoundTripper) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{
		inner:   inner,
		scripts: make(map[string][]Fault),
		always:  make(map[string]Fault),
	}
}

// Client returns an *http.Client dispatching through the transport —
// what fleet.Options.Client wants.
func (t *Transport) Client() *http.Client {
	return &http.Client{Transport: t}
}

// Script appends faults to worker's script; each queued fault fires on
// exactly one future request to that worker, in order.
func (t *Transport) Script(worker string, faults ...Fault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.scripts[worker] = append(t.scripts[worker], faults...)
}

// Always installs a persistent fault on worker, applied to every
// request once its script (if any) is drained. A nil fault uninstalls.
func (t *Transport) Always(worker string, f Fault) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f == nil {
		delete(t.always, worker)
		return
	}
	t.always[worker] = f
}

// next pops the fault that applies to one request to key, if any.
func (t *Transport) next(key string) (Fault, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.scripts[key]; len(s) > 0 {
		f := s[0]
		t.scripts[key] = s[1:]
		return f, true
	}
	if f, ok := t.always[key]; ok {
		return f, true
	}
	return nil, false
}

// RoundTrip applies the worker's next fault, or passes the request
// through untouched.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	key := req.URL.Scheme + "://" + req.URL.Host
	if f, ok := t.next(key); ok {
		return f.apply(req, t.inner)
	}
	return t.inner.RoundTrip(req)
}

// Pass is an explicit pass-through slot in a script — "fail twice, then
// work" is Script(w, Refuse(), Refuse(), Pass()).
func Pass() Fault { return passFault{} }

type passFault struct{}

func (passFault) apply(req *http.Request, inner http.RoundTripper) (*http.Response, error) {
	return inner.RoundTrip(req)
}

// Hang blocks the request until its context is cancelled (a winning
// speculative duplicate or run cancellation) without any I/O — the
// silently wedged worker.
func Hang() Fault { return hangFault{} }

type hangFault struct{}

func (hangFault) apply(req *http.Request, _ http.RoundTripper) (*http.Response, error) {
	<-req.Context().Done()
	return nil, req.Context().Err()
}

// Refuse fails immediately with ECONNREFUSED, as if nothing listens on
// the worker's port — the dead worker, without any dialing.
func Refuse() Fault { return refuseFault{} }

type refuseFault struct{}

func (refuseFault) apply(req *http.Request, _ http.RoundTripper) (*http.Response, error) {
	return nil, &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}
}

// Status synthesizes a structured error response with the given status
// — 500 for a flapping worker, 429/503 for saturation and drain — and,
// when retryAfter > 0, a Retry-After header with that many (rounded-up)
// seconds.
func Status(code int, retryAfter time.Duration) Fault {
	return statusFault{code: code, retryAfter: retryAfter}
}

type statusFault struct {
	code       int
	retryAfter time.Duration
}

func (f statusFault) apply(req *http.Request, _ http.RoundTripper) (*http.Response, error) {
	body := fmt.Sprintf(`{"error":{"code":"chaos","message":"injected %d"}}`, f.code)
	resp := &http.Response{
		StatusCode: f.code,
		Status:     http.StatusText(f.code),
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     make(http.Header),
		Body:       io.NopCloser(strings.NewReader(body)),
		Request:    req,
	}
	resp.Header.Set("Content-Type", "application/json")
	if f.retryAfter > 0 {
		secs := int((f.retryAfter + time.Second - 1) / time.Second)
		resp.Header.Set("Retry-After", fmt.Sprint(secs))
	}
	return resp, nil
}

// PartitionMidBody performs the real round trip and then severs the
// response stream halfway through the body with ECONNRESET — the
// network partition that strikes after the worker already did the work.
func PartitionMidBody() Fault { return partitionFault{} }

type partitionFault struct{}

func (partitionFault) apply(req *http.Request, inner http.RoundTripper) (*http.Response, error) {
	resp, err := inner.RoundTrip(req)
	if err != nil || resp.Body == nil {
		return resp, err
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	resp.Body = &tornBody{data: data[:len(data)/2]}
	return resp, nil
}

// tornBody serves its bytes and then fails like a reset connection.
type tornBody struct {
	data []byte
	off  int
}

func (b *tornBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *tornBody) Close() error { return nil }

// SlowDrip performs the real round trip and then meters the body out in
// chunk-byte pieces with delay between them — the straggling worker
// that answers, eventually. The drip respects the request context, so
// speculation losers and run cancellation cut it short.
func SlowDrip(delay time.Duration, chunk int) Fault {
	if chunk <= 0 {
		chunk = 1
	}
	return dripFault{delay: delay, chunk: chunk}
}

type dripFault struct {
	delay time.Duration
	chunk int
}

func (f dripFault) apply(req *http.Request, inner http.RoundTripper) (*http.Response, error) {
	resp, err := inner.RoundTrip(req)
	if err != nil || resp.Body == nil {
		return resp, err
	}
	resp.Body = &dripBody{inner: resp.Body, ctx: req.Context(), delay: f.delay, chunk: f.chunk}
	return resp, nil
}

// dripBody throttles an underlying body to chunk bytes per delay.
type dripBody struct {
	inner io.ReadCloser
	ctx   context.Context
	delay time.Duration
	chunk int
}

func (b *dripBody) Read(p []byte) (int, error) {
	select {
	case <-b.ctx.Done():
		return 0, b.ctx.Err()
	case <-time.After(b.delay):
	}
	if len(p) > b.chunk {
		p = p[:b.chunk]
	}
	return b.inner.Read(p)
}

func (b *dripBody) Close() error { return b.inner.Close() }
