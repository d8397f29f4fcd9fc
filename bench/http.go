package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/bench/internal/span"
	"repro/internal/serve"
)

// spanHeader carries the caller's span id to a handler wrapper, which
// records the handler's span as its child.
const spanHeader = "X-Bench-Span"

// server is one serve.Server on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// startServer starts cfg's server on 127.0.0.1. With a tracer, the
// handler records a span named name for every request that carries a
// spanHeader, as a child of that span.
func startServer(cfg serve.Config, tr *span.Tracer, name string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	h := s.srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
			if err != nil {
				inner.ServeHTTP(w, r)
				return
			}
			t := time.Now()
			inner.ServeHTTP(w, r)
			tr.Add(0, parent, name, "", t, time.Now())
		})
	}
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop shuts the listener down, cancels in-flight derivations and waits
// for the serving goroutine to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a timeout only means connections were cut
	s.srv.Close()
	<-s.done
}

// newClient returns a client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// curveReply is the part of a POST /v1/curve response the benchmark
// checks.
type curveReply struct {
	Digest    string          `json:"digest"`
	Cached    bool            `json:"cached"`
	Evaluated int64           `json:"evaluated"`
	Curve     json.RawMessage `json:"curve"`
}

// postCurve sends one POST /v1/curve and decodes the reply. spanID, when
// non-zero, is sent in spanHeader. Any non-200 status is an error.
func postCurve(c *http.Client, url string, body []byte, spanID uint64) (curveReply, error) {
	var reply curveReply
	req, err := http.NewRequest(http.MethodPost, url+"/v1/curve", bytes.NewReader(body))
	if err != nil {
		return reply, err
	}
	req.Header.Set("Content-Type", "application/json")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(spanID, 10))
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply, fmt.Errorf("bench: POST /v1/curve: status %d: %.200s", resp.StatusCode, data)
	}
	err = json.Unmarshal(data, &reply)
	return reply, err
}

// spanTransport is the fleet coordinator's RoundTripper: it records every
// shard dispatch as a span under the client request in flight (current),
// tags the request with spanHeader so the worker's span links to it, and
// counts the partial-frontier bytes the workers return.
type spanTransport struct {
	base    http.RoundTripper
	tr      *span.Tracer
	current *atomic.Uint64
	bytes   atomic.Int64
}

// RoundTrip implements http.RoundTripper. The dispatch span ends when the
// coordinator closes the response body, after it has read the partial.
func (t *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := t.current.Load()
	var id uint64
	if t.tr != nil && parent != 0 {
		id = t.tr.ID()
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &t.bytes, done: func() {
		if id != 0 {
			t.tr.Add(id, parent, "fleet.dispatch", "", start, time.Now())
		}
	}}
	return resp, nil
}

// countingBody counts the bytes read through it and calls done once, on
// Close.
type countingBody struct {
	io.ReadCloser
	n      *atomic.Int64
	done   func()
	closed bool
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

func (b *countingBody) Close() error {
	if !b.closed {
		b.closed = true
		b.done()
	}
	return b.ReadCloser.Close()
}
