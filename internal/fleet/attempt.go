package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/shard"
)

// ErrInvalidResponse marks a worker response that is not a structurally
// valid, complete, digest-compatible partial frontier for the dispatched
// shard: torn or truncated JSON, a foreign derivation's digests, the
// wrong shard slot, or an incomplete slice. The response bytes are
// quarantined for inspection and the dispatch is retried elsewhere — an
// invalid response can never reach the spool.
var ErrInvalidResponse = errors.New("fleet: invalid worker response")

// PermanentError is a worker rejection retries cannot fix: an HTTP 4xx
// other than 429 (invalid_request, invalid_workload,
// unsupported_version, worker_disabled). The same spec and plan would be
// rejected identically by every worker, so the coordinator fails the
// shard immediately instead of burning its retry budget.
type PermanentError struct {
	// Worker is the rejecting worker's base URL; Status its HTTP status.
	Worker string
	Status int
	// Code and Message are the structured error payload
	// (serve.ErrorInfo schema), when the worker sent one.
	Code    string
	Message string
}

// Error renders the rejection.
func (e *PermanentError) Error() string {
	return fmt.Sprintf("fleet: worker %s rejected dispatch: %d %s: %s", e.Worker, e.Status, e.Code, e.Message)
}

// RetryAfterError is a polite worker deferral: a 429 (saturated) or 503
// (draining) that carried a Retry-After hint. The coordinator holds that
// specific worker out of allocation for the hinted duration and retries
// the shard elsewhere immediately — without burning the retry budget or
// sleeping a generic backoff, because the worker told us exactly what is
// wrong and for how long (docs/fleet-protocol.md "Health, membership &
// breakers"). Deferrals never trip the worker's circuit breaker.
type RetryAfterError struct {
	// Worker is the deferring worker's base URL; Status its HTTP status
	// (429 or 503).
	Worker string
	Status int
	// After is the parsed, clamped hold duration.
	After time.Duration
	// Code and Message are the structured error payload
	// (serve.ErrorInfo schema), when the worker sent one.
	Code    string
	Message string
}

// Error renders the deferral.
func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("fleet: worker %s deferred dispatch for %v: %d %s: %s", e.Worker, e.After, e.Status, e.Code, e.Message)
}

// maxRetryAfter clamps worker Retry-After hints so a confused (or
// hostile) worker cannot hold itself out of the fleet indefinitely.
const maxRetryAfter = time.Minute

// parseRetryAfter parses a Retry-After header value — delta-seconds or
// an HTTP-date — into a clamped hold duration. A date in the past parses
// as a zero hold (the worker says "now is fine").
func parseRetryAfter(h string, now time.Time) (time.Duration, bool) {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs < 0 {
			return 0, false
		}
		return min(time.Duration(secs)*time.Second, maxRetryAfter), true
	}
	if t, err := http.ParseTime(h); err == nil {
		return min(max(t.Sub(now), 0), maxRetryAfter), true
	}
	return 0, false
}

// errorEnvelope mirrors serve's error body without importing serve
// (which imports this package).
type errorEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	} `json:"error"`
}

// maxErrorBody bounds how much of an error response the coordinator
// reads; structured error payloads are tiny.
const maxErrorBody = 64 << 10

// runRemote is the HTTP attempt: one dispatch round (attemptWithSpeculation)
// shipping the job's embedded canonical spec, whose validated winning
// response is spooled atomically into the shard's slot. Returns the
// worker the round ended on, so a retry can avoid it.
func (c *coord) runRemote(ctx context.Context, st *ShardState, job *shard.Job, expected *shard.Manifest, avoid string) (string, error) {
	if len(job.Spec) == 0 {
		return "", fmt.Errorf("fleet: job carries no workload spec to dispatch (%w)", errNotRetryable)
	}
	data, worker, err := c.attemptWithSpeculation(ctx, st, job, expected, avoid)
	if err != nil {
		return worker, err
	}
	if err := shard.WriteFileAtomic(c.opts.FS, st.Path, data); err != nil {
		return worker, fmt.Errorf("fleet: spooling response (%w): %w", errNotRetryable, err)
	}
	st.Worker = worker
	st.Evaluated = expected.RangeHi - expected.RangeLo
	return worker, nil
}

// attemptResult is one dispatch's outcome.
type attemptResult struct {
	data   []byte // the validated partial-frontier file bytes
	worker string
	qpath  string // quarantine file holding an invalid response, if any
	err    error
}

// attemptWithSpeculation runs one retry round: a primary dispatch, plus —
// after Options.SpeculateAfter with no result yet — at most one
// speculative duplicate on an idle different worker. The first valid
// response wins (the duplicate's context is cancelled; its late response
// is discarded). Returns the winning response bytes and worker, or — when
// every launched dispatch failed — the last failed worker and the first
// error.
func (c *coord) attemptWithSpeculation(ctx context.Context, st *ShardState, job *shard.Job, expected *shard.Manifest, avoid string) ([]byte, string, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	primary, err := c.reg.acquire(actx, avoid)
	if err != nil {
		return nil, "", err
	}
	results := make(chan attemptResult, 2)
	inFlight := map[string]bool{primary: true}
	launch := func(worker string) {
		st.Attempts++
		go func() {
			start := time.Now()
			data, qpath, aerr := c.post(actx, st.Path, job, expected, worker)
			// The books are kept here, in the dispatch goroutine, so
			// speculation losers' outcomes reach the breaker and the
			// throughput estimate too.
			c.reg.done(worker, time.Since(start), aerr)
			results <- attemptResult{data: data, worker: worker, qpath: qpath, err: aerr}
		}()
	}
	launch(primary)

	var spec <-chan time.Time
	if c.opts.SpeculateAfter > 0 {
		t := time.NewTimer(c.opts.SpeculateAfter)
		defer t.Stop()
		spec = t.C
	}
	var firstErr error
	lastWorker := primary
	pending := 1
	for {
		select {
		case r := <-results:
			pending--
			if r.qpath != "" {
				st.Quarantined = append(st.Quarantined, r.qpath)
			}
			if r.err == nil {
				return r.data, r.worker, nil
			}
			lastWorker = r.worker
			if firstErr == nil {
				firstErr = r.err
			}
			if pending == 0 {
				return nil, lastWorker, firstErr
			}
		case <-spec:
			spec = nil
			if w, ok := c.reg.tryAcquire(inFlight); ok {
				inFlight[w] = true
				pending++
				st.Speculated++
				c.reg.tally(Totals{Speculations: 1})
				c.opts.logf("fleet: shard %s straggling; speculating on %s", job.Plan, w)
				launch(w)
			}
		case <-ctx.Done():
			return nil, lastWorker, ctx.Err()
		}
	}
}

// post runs one dispatch: POST the job's spec and plan slot to worker's
// /v1/shard, then validate the response against the locally built
// expected manifest before anything is trusted. Returns the validated
// response bytes; or the path of a quarantined invalid response plus a
// retryable error; or a *PermanentError for deterministic rejections; or
// the context error when cancelled.
func (c *coord) post(ctx context.Context, slotPath string, job *shard.Job, expected *shard.Manifest, worker string) ([]byte, string, error) {
	plan := job.Plan
	if c.opts.AttemptTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.AttemptTimeout)
		defer cancel()
	}
	body, err := json.Marshal(ShardRequest{
		Spec:             job.Spec,
		ShardIndex:       plan.Index,
		ShardCount:       plan.Count,
		CheckpointEvery:  c.opts.CheckpointEvery,
		TimeoutMS:        c.opts.AttemptTimeout.Milliseconds(),
		MaxFormatVersion: shard.FormatVersion,
	})
	if err != nil {
		return nil, "", fmt.Errorf("fleet: encoding dispatch: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/shard", bytes.NewReader(body))
	if err != nil {
		return nil, "", fmt.Errorf("fleet: building dispatch to %s: %w", worker, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opts.client().Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, "", cerr
		}
		return nil, "", fmt.Errorf("fleet: dispatch to %s: %w", worker, err)
	}
	defer resp.Body.Close()

	if resp.StatusCode != http.StatusOK {
		var env errorEnvelope
		data, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		_ = json.Unmarshal(data, &env)
		if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
			return nil, "", &PermanentError{Worker: worker, Status: resp.StatusCode, Code: env.Error.Code, Message: env.Error.Message}
		}
		// A 429 (saturated) or 503 (draining) with a Retry-After hint is a
		// polite deferral: hold exactly that worker out for exactly that
		// long instead of a generic backoff-and-avoid.
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			if after, ok := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				return nil, "", &RetryAfterError{Worker: worker, Status: resp.StatusCode, After: after, Code: env.Error.Code, Message: env.Error.Message}
			}
		}
		// Unhinted 429/503, 504 (worker deadline — its checkpoint
		// survives) and 5xx all retry elsewhere.
		return nil, "", fmt.Errorf("fleet: worker %s answered %d %s: %s", worker, resp.StatusCode, env.Error.Code, env.Error.Message)
	}

	data, err := io.ReadAll(resp.Body)
	if err != nil {
		// Mid-flight worker death or a torn stream: the body ended before
		// the response did. Retry elsewhere.
		if cerr := ctx.Err(); cerr != nil {
			return nil, "", cerr
		}
		return nil, "", fmt.Errorf("fleet: reading response from %s: %w", worker, err)
	}
	// The one slot-admission rule, applied before the bytes can touch
	// the spool: exactly what a merge would check.
	if _, verr := shard.Admit(data, expected, true); verr != nil {
		qpath := c.quarantineBytes(slotPath, data)
		return nil, qpath, fmt.Errorf("%w from %s: %v", ErrInvalidResponse, worker, verr)
	}
	return data, "", nil
}

// quarantineBytes sets an invalid response's bytes aside beside the slot
// it tried to fill, so the evidence survives: written through the spool
// FS to a "<slot>.tmp*" temp (which the slot's next sweep collects if
// this process dies first), then renamed to the first free
// "<slot>.quarantine[.N]" name (shard.Quarantine). Returns the path, or
// "" when that failed (logged; the dispatch error stands on its own).
func (c *coord) quarantineBytes(slotPath string, data []byte) string {
	fsys := c.opts.FS
	tmp, err := fsys.CreateTemp(filepath.Dir(slotPath), filepath.Base(slotPath)+".tmp*")
	if err == nil {
		_, err = tmp.Write(data)
		if cerr := tmp.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			var qpath string
			if qpath, err = shard.Quarantine(fsys, tmp.Name(), slotPath+".quarantine"); err == nil {
				c.reg.tally(Totals{Quarantines: 1})
				return qpath
			}
		}
	}
	c.opts.logf("fleet: cannot quarantine invalid response for %s: %v", slotPath, err)
	return ""
}
