// Package serve is the long-running derivation service: orojenesisd's
// engine room. It wraps the repo's bound-derivation paths (two-level
// bound, three-level multilevel, tiled fusion) behind an HTTP API that
// stays predictable under the failure modes long-lived servers actually
// meet:
//
//   - Deadlines and disconnects. Every request runs under a context that
//     merges the client connection, a per-request timeout, and the server
//     lifetime; cancellation reaches the traversal engine at chunk
//     granularity, so an abandoned request stops burning CPU within one
//     chunk.
//   - Admission control. Concurrent derivations are bounded by a slot
//     semaphore with a bounded, time-budgeted wait queue; past both
//     bounds the server sheds load with 429 + Retry-After instead of
//     queueing without bound.
//   - Single-flight caching. Results are cached in a digest-keyed LRU,
//     and concurrent identical requests — keyed by the same canonical
//     workload/options encodings the sharded format uses — share one
//     derivation. A stampede of N requests costs one traversal. Fleet
//     worker shards fly the same way, keyed by checkpoint path.
//   - Panic containment. A panic anywhere in a derivation or a worker
//     shard (traversal workers already recover their own; the guarded
//     run both endpoints share recovers the rest) becomes a structured
//     500 with the stack in the server log. The process never crashes on
//     a request.
//   - One failure table. Both endpoints answer every failure through
//     the same mapping from error to status, code and Retry-After, so a
//     curve client and a fleet coordinator read the same taxonomy.
//   - Graceful drain. Drain stops admissions, lets in-flight work finish
//     within a deadline, then cancels the rest — and because sharded
//     derivations checkpoint partial frontiers in the spool directory,
//     a restarted server resumes them instead of starting over.
//
// The package is deliberately transport-thin: everything interesting is
// in how requests map onto the existing derivation engine, so the served
// curves are byte-identical to what bound.Derive and friends produce
// in-process.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/fleet"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/traverse"
)

// maxBodyBytes bounds request bodies; workload specs are tiny, so
// anything larger is abuse or a mistake.
const maxBodyBytes = 1 << 20

// Config tunes a Server. The zero value is usable: every field has a
// sensible default resolved by New.
type Config struct {
	// Workers is the traversal worker count per derivation; <= 0 means
	// GOMAXPROCS. Results are identical for every worker count.
	Workers int

	// MaxConcurrent bounds simultaneously running derivations; <= 0
	// means GOMAXPROCS.
	MaxConcurrent int

	// MaxQueue bounds flights waiting for a derivation slot; <= 0 means
	// 4 × MaxConcurrent.
	MaxQueue int

	// QueueWait is the longest a queued flight waits for a slot before
	// the server sheds it with 429; <= 0 means 10s.
	QueueWait time.Duration

	// DefaultTimeout applies to requests that set no timeout_ms;
	// MaxTimeout clamps requests that ask for more. Defaults: 60s, 10m.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// CacheEntries is the result LRU capacity; <= 0 means 128.
	CacheEntries int

	// SpoolDir, when set, enables sharded derivations (request field
	// "shards"): each runs as a checkpointed fleet.Run under
	// SpoolDir/<digest prefix>, so a killed server resumes rather than
	// restarts them. Empty disables sharded requests.
	SpoolDir string

	// StoreDir, when set, enables the durable curve tier
	// (internal/store, docs/curve-store.md): successful exact
	// derivations are persisted content-addressed by their digest, and a
	// cache miss checks the disk before deriving — so a restarted server
	// (or a CLI warmer sharing the directory) turns repeated workloads
	// into disk hits instead of re-derivations. Empty disables the tier.
	// A directory that cannot be opened, or that fails persistently at
	// runtime (ENOSPC after GC, permissions), degrades the server to
	// memory-only caching — logged once and visible as store_disabled in
	// /stats — instead of failing requests.
	StoreDir string

	// StoreMaxBytes caps the curve store's on-disk size; past it the
	// least recently used entries are garbage-collected. <= 0 means the
	// store default (1 GiB); small positive values are clamped up to the
	// store minimum.
	StoreMaxBytes int64

	// CheckpointEvery is the per-shard checkpoint stride for spooled
	// derivations (shard.RunOptions semantics; 0 means the shard
	// package default).
	CheckpointEvery int64

	// ShardRetries is the per-shard retry budget for spooled
	// derivations (fleet.Options.MaxRetries semantics).
	ShardRetries int

	// MaxShards bounds the per-request shard count; <= 0 means 64.
	MaxShards int

	// WorkerDir, when set, enables the fleet worker endpoint POST
	// /v1/shard (docs/fleet-protocol.md): dispatched shard slices run as
	// checkpointed shard jobs at WorkerDir/<digest prefix>-shard-K-of-N.json,
	// so a retried dispatch resumes instead of restarting. The worker
	// creates the directory if it is missing. Empty disables the endpoint
	// (404 worker_disabled).
	WorkerDir string

	// FleetWorkers, when non-empty, switches spooled sharded derivations
	// (request field "shards" > 1) from in-process shard runs to fleet
	// dispatch: slices are POSTed to these worker base URLs
	// (internal/fleet) with retry, quarantine, and speculation owned by
	// the coordinator. Completed partials still land in the spool, so
	// drain/resume semantics are unchanged.
	FleetWorkers []string

	// FleetPerWorker caps concurrent shard dispatches per fleet worker
	// (<= 0 means the fleet default); FleetSpeculateAfter enables
	// speculative re-execution of straggler slices on idle workers after
	// that delay (0 disables speculation).
	FleetPerWorker      int
	FleetSpeculateAfter time.Duration

	// FleetProbeInterval is the period of the fleet registry's /readyz
	// health probes, running for the server's lifetime; 0 means 15s,
	// negative disables probing. Each probe outcome feeds the worker's
	// circuit breaker like a dispatch outcome (docs/fleet-protocol.md
	// "Health, membership & breakers").
	FleetProbeInterval time.Duration

	// FleetBreakerFailures and FleetBreakerCooldown tune the per-worker
	// circuit breakers of the fleet registry: consecutive dispatch
	// failures to open, and how long an open breaker sheds load before
	// its half-open probe dispatch. Zero values take the fleet defaults.
	FleetBreakerFailures int
	FleetBreakerCooldown time.Duration

	// FleetClient overrides the coordinator's HTTP client for dispatches
	// and health probes — also the fault-injection seam fleet transport
	// tests use. Nil means http.DefaultClient, which has no client
	// timeout: a dispatch is then bounded only by its flight's context
	// (and a probe by fleet.DefaultProbeTimeout).
	FleetClient *http.Client

	// Logf, when non-nil, receives operational log lines (recovered
	// panics with stacks, spool cleanup problems, shard retries).
	Logf func(format string, args ...any)

	// OnCheckpoint, when non-nil, observes every checkpoint flush of
	// every spooled sharded derivation — the hook drain tests and
	// progress monitors use.
	OnCheckpoint func(shard.Manifest)

	// deriveWrap, when non-nil, wraps every derivation function just
	// before it runs — the test seam for injecting slow, panicking, or
	// counting derivations without touching the engine.
	deriveWrap func(d *derivation, fn deriveFn) deriveFn

	// fs, when non-nil, is the filesystem of every durable file the
	// server touches — the curve store, the spool, fleet runs and worker
	// checkpoints — and the fault-injection seam of the robustness
	// suites (torn writes, ENOSPC, rename, lock and directory failures).
	// Nil means the real OS filesystem.
	fs shard.FS
}

// Server is the derivation service. Construct with New, mount Handler on
// any http.Server, and stop with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	mem     *memCache
	adm     *admission
	stats   counters
	started time.Time

	// base is the server lifetime context: parent of every flight.
	base       context.Context
	cancelBase context.CancelFunc

	// draining closes admissions; flightMu serializes the
	// draining-check-then-Add against Drain's barrier so no flight
	// starts after the drain wait begins.
	draining atomic.Bool
	flightMu sync.Mutex
	wg       sync.WaitGroup

	// shards is the single-flight table of /v1/shard runs, keyed by
	// checkpoint path: an overlapping identical dispatch joins the running
	// slice. Its capacity is 0, so shard bytes are never cached.
	shards *memCache

	// fleetReg is the server-lifetime fleet membership: worker health,
	// circuit breakers, Retry-After holds and throughput scores persist
	// across fleet runs, and SetFleetWorkers reconciles it at runtime. It
	// always exists — a server configured without fleet workers has an
	// empty membership and derives locally until one joins.
	fleetReg *fleet.Registry

	// disk is the durable curve tier: nil when StoreDir is empty or the
	// directory failed to open (/stats then reports store_disabled, and
	// the server serves memory-cached and freshly derived curves as if no
	// store were configured).
	disk *store.Store
}

// New constructs a Server from cfg, resolving defaults.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.QueueWait <= 0 {
		cfg.QueueWait = 10 * time.Second
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 10 * time.Minute
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 128
	}
	if cfg.MaxShards <= 0 {
		cfg.MaxShards = 64
	}
	if cfg.fs == nil {
		cfg.fs = shard.OS()
	}
	if cfg.FleetProbeInterval == 0 {
		cfg.FleetProbeInterval = 15 * time.Second
	}
	base, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		mux:        http.NewServeMux(),
		mem:        newMemCache(cfg.CacheEntries),
		shards:     newMemCache(0),
		adm:        newAdmission(cfg.MaxConcurrent, cfg.MaxQueue, cfg.QueueWait),
		started:    time.Now(),
		base:       base,
		cancelBase: cancel,
		fleetReg: fleet.NewRegistry(cfg.FleetWorkers, fleet.RegistryConfig{
			PerWorker: cfg.FleetPerWorker,
			Breaker: fleet.BreakerConfig{
				Failures: cfg.FleetBreakerFailures,
				Cooldown: cfg.FleetBreakerCooldown,
			},
			Logf: cfg.Logf,
		}),
	}
	if cfg.FleetProbeInterval > 0 {
		s.fleetReg.StartProbing(s.base, cfg.FleetProbeInterval, cfg.FleetClient)
	}
	if cfg.StoreDir != "" {
		disk, err := store.Open(store.Options{
			Dir:      cfg.StoreDir,
			MaxBytes: cfg.StoreMaxBytes,
			FS:       cfg.fs,
			Logf:     cfg.Logf,
		})
		if err != nil {
			// The tier is an optimization: a server whose store directory
			// is broken serves memory-cached and freshly derived curves
			// exactly as one configured without a store.
			s.logf("serve: curve store disabled (memory-only caching): %v", err)
		} else {
			s.disk = disk
		}
	}
	s.mux.HandleFunc("/v1/curve", s.handleCurve)
	s.mux.HandleFunc("/v1/shard", s.handleShard)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/stats", s.handleStats)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain gracefully stops the server: admissions close immediately (new
// curve requests get 503 draining), in-flight derivations run to
// completion, and if ctx expires first the remainder are cancelled —
// spooled sharded derivations flush final checkpoints on the way out, so
// a successor process resumes them. Returns ctx.Err when the deadline
// cut the drain short, nil on a clean drain.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	// Barrier: any handler that passed the draining check before the
	// store is inside flightMu; after this lock cycles, no new flight
	// can start.
	s.flightMu.Lock()
	s.flightMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelBase()
		return nil
	case <-ctx.Done():
		s.cancelBase()
		<-done
		return ctx.Err()
	}
}

// Close stops the server immediately: admissions close and every
// in-flight derivation is cancelled at chunk granularity.
func (s *Server) Close() {
	s.draining.Store(true)
	s.cancelBase()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// CurveResponse is the success body of POST /v1/curve. Its fields up to
// Points are per request; the embedded ResultFields depend only on the
// derivation's result.
type CurveResponse struct {
	// Workload is the human-readable workload label.
	Workload string `json:"workload"`
	// Kind is the derivation path (bound, multilevel, fusion-tiled).
	Kind string `json:"kind"`
	// Digest is the derivation's stable identity: identical requests —
	// across processes — share it.
	Digest string `json:"digest"`
	// Cached reports whether the curve came from the result cache.
	Cached bool `json:"cached"`
	// Shards echoes the sharded execution width (0 = in-process).
	Shards int `json:"shards,omitempty"`
	// Evaluated is the number of mappings the derivation evaluated (the
	// original derivation's count when Cached).
	Evaluated int64 `json:"evaluated"`
	// ElapsedMS is the derivation wall time (original time when Cached).
	ElapsedMS int64 `json:"elapsed_ms"`
	// Points is the number of frontier breakpoints in Curve.
	Points int `json:"points"`

	ResultFields
}

// ResultFields are the fields of a CurveResponse that depend only on the
// derivation's result: the curve, any per-segmentation curves, and a
// degraded merge's coverage annotation. The server encodes them once per
// result, when the result is published, and splices the same bytes into
// every response that serves it.
type ResultFields struct {
	// Curve is the Pareto frontier in the pareto package's JSON schema.
	Curve *pareto.Curve `json:"curve"`
	// Segments are the per-segmentation curves of an in-process
	// segmentation study (absent for other kinds and for sharded runs,
	// which return only the merged best curve).
	Segments []SegmentResult `json:"segments,omitempty"`

	// Degraded marks a 206 envelope: an allow_partial request whose shard
	// fleet failed partway. The remaining fields quantify the coverage —
	// the same annotation shard.MergeDegraded (and the shardmerge CLI's
	// -allow-partial envelope) reports.
	Degraded         bool    `json:"degraded,omitempty"`
	Items            int64   `json:"items,omitempty"`
	CoveredIndices   int64   `json:"covered_indices,omitempty"`
	CoveredFraction  float64 `json:"covered_fraction,omitempty"`
	MissingShards    []int   `json:"missing_shards,omitempty"`
	IncompleteShards []int   `json:"incomplete_shards,omitempty"`
}

// ErrorInfo is the machine-readable error payload.
type ErrorInfo struct {
	// Code is one of: invalid_request, invalid_workload,
	// unsupported_version, method_not_allowed, worker_disabled,
	// saturated, draining, deadline, panic, invalid_curve, internal.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error ErrorInfo `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, _ := encodeJSON(v) // error, health and stats bodies always encode
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(data)
}

// encodeJSON encodes v the way every response body is written: by
// encoding/json with HTML escaping off, newline-terminated.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// errInvalidCurve marks a derived curve that breaks the curve decoder's
// invariants (pareto.Curve.Validate) — a wrapped count, say. Such a
// result is answered with a 500 invalid_curve and is never cached,
// persisted or sent as a success: no client could decode it.
var errInvalidCurve = errors.New("serve: derived curve is invalid")

// encodeResultFields encodes a result's ResultFields as they end a
// success envelope: every field from "curve" on plus the closing brace and
// newline — the encoded object minus its opening brace. The curve must
// be present, and it and every segment curve present must pass
// pareto.Curve.Validate; otherwise the error wraps errInvalidCurve.
func encodeResultFields(out deriveOut) ([]byte, error) {
	if out.curve == nil {
		return nil, fmt.Errorf("%w: no curve", errInvalidCurve)
	}
	if err := out.curve.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errInvalidCurve, err)
	}
	for _, sg := range out.segments {
		if sg.Curve == nil {
			continue
		}
		if err := sg.Curve.Validate(); err != nil {
			return nil, fmt.Errorf("%w: segment %s: %v", errInvalidCurve, sg.Label, err)
		}
	}
	rf := ResultFields{Curve: out.curve, Segments: out.segments}
	if dg := out.degraded; dg != nil {
		rf.Degraded = true
		rf.Items = dg.Items
		rf.CoveredIndices = dg.CoveredIndices
		rf.CoveredFraction = dg.CoveredFraction
		rf.MissingShards = dg.MissingShards
		rf.IncompleteShards = dg.IncompleteShards
	}
	data, err := encodeJSON(rf)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding result: %w", err)
	}
	return data[1:], nil
}

// appendJSONString appends s as encodeJSON writes a string. Labels, kinds
// and digests are printable ASCII without quotes or backslashes, which
// encode verbatim; anything else goes through encoding/json itself.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' {
			data, _ := encodeJSON(s) // a string always encodes
			return append(b, data[:len(data)-1]...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// decodeRequest decodes a POST body into v the way both endpoints
// accept one: at most maxBodyBytes, no unknown fields. A body that fails
// is answered with 400 invalid_request and reported as false.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_request", err.Error(), 0)
		return false
	}
	return true
}

// timeout resolves a request's timeout_ms: DefaultTimeout when unset,
// the requested deadline clamped to MaxTimeout otherwise.
func (s *Server) timeout(ms int64) time.Duration {
	if ms <= 0 {
		return s.cfg.DefaultTimeout
	}
	return min(time.Duration(ms)*time.Millisecond, s.cfg.MaxTimeout)
}

// enter registers work with the drain barrier and reports false when the
// server is draining. Drain's empty flightMu cycle guarantees that once
// it waits, no caller passes here; a caller that entered must call
// s.wg.Done when its work ends.
func (s *Server) enter() bool {
	s.flightMu.Lock()
	defer s.flightMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.wg.Add(1)
	return true
}

// errDraining fails work that could not start because the server is
// draining.
var errDraining = errors.New("serve: server is draining")

func writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		// Round UP to whole seconds: truncation would turn any sub-second
		// backoff into "Retry-After: 0" — an instruction to retry
		// immediately, amplifying the very stampede the 429 sheds.
		secs := int64(retryAfter / time.Second)
		if retryAfter%time.Second != 0 {
			secs++
		}
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, ErrorResponse{Error: ErrorInfo{Code: code, Message: msg}})
}

// handleCurve is POST /v1/curve: parse and validate, consult the cache,
// join or lead the single flight, and wait under the request's own
// deadline.
func (s *Server) handleCurve(w http.ResponseWriter, r *http.Request) {
	s.stats.requests.Add(1)
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method_not_allowed", "use POST", 0)
		return
	}
	if s.draining.Load() {
		s.fail(w, r.Context(), errDraining)
		return
	}

	var req Request
	if !decodeRequest(w, r, &req) {
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "invalid_request", "negative timeout_ms", 0)
		return
	}
	if req.Shards < 0 || req.Shards > s.cfg.MaxShards {
		writeError(w, http.StatusBadRequest, "invalid_request",
			fmt.Sprintf("shards %d outside [0, %d]", req.Shards, s.cfg.MaxShards), 0)
		return
	}
	if req.Shards > 1 && s.cfg.SpoolDir == "" {
		writeError(w, http.StatusBadRequest, "invalid_request",
			"sharded derivation disabled: server has no spool directory", 0)
		return
	}
	if req.AllowPartial && req.Shards <= 1 {
		writeError(w, http.StatusBadRequest, "invalid_request",
			"allow_partial applies to sharded derivations (shards > 1)", 0)
		return
	}
	d, err := buildDerivation(&req, s.cfg.Workers)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid_workload", err.Error(), 0)
		return
	}
	if req.AllowPartial {
		// A flight that may publish a degraded result must never be
		// shared with (or cached for) a request that did not consent to
		// one, so partial-tolerant requests fly under their own key. The
		// digest — and with it the spool directory — is unchanged: both
		// populations resume the same checkpointed partials.
		d.key += "|allow_partial"
	}

	if !req.NoCache {
		if res, ok := s.mem.get(d.key); ok {
			s.stats.hits.Add(1)
			s.respond(w, d, &req, res, true)
			return
		}
	}
	// Sizing the mapspace builds its enumeration, so only a miss pays for
	// it: a cached key was derived, so its Space succeeded.
	if _, err := d.spec.Space(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_workload", err.Error(), 0)
		return
	}
	s.stats.misses.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.timeout(req.TimeoutMS))
	defer cancel()
	res, err := s.fly(ctx, s.mem, d.key, s.leadCurve(d, req.Shards, req.AllowPartial, req.NoCache))
	if err != nil {
		s.fail(w, ctx, err)
		return
	}
	s.respond(w, d, &req, res, false)
}

// fly joins — or leads — the single flight of key in table and waits for
// its outcome under ctx: the flight's result and error, or ctx's error if
// ctx ends first, in which case the caller leaves the flight. A leader
// starts lead under the flight context and publishes what it returns.
func (s *Server) fly(ctx context.Context, table *memCache, key string, lead func(context.Context) (result, error)) (result, error) {
	f, leader, err := table.join(ctx, s.base, key)
	if err != nil {
		return result{}, err
	}
	if leader {
		go func() {
			defer f.cancel()
			res, err := lead(f.ctx)
			table.finish(f, res, err)
		}()
	}
	defer table.leave(f)
	select {
	case <-f.done:
		// finish has published res/err; waiters read them after done.
		return f.res, f.err
	case <-ctx.Done():
		return result{}, ctx.Err()
	}
}

// respond writes the success envelope: 200 for complete results, 206
// (partial content) for degraded merges, whose coverage annotation rides
// along so a client can never mistake a partial frontier for an exact one.
// It is the one writer of every success body, fresh or cached. Only the
// per-request fields, workload to points, are encoded here; the result's
// fields were encoded once when the result was published (res.fields).
// The body is byte-identical to encodeJSON of the CurveResponse, pinned by
// TestWireBytesPinned.
func (s *Server) respond(w http.ResponseWriter, d *derivation, req *Request, res result, cached bool) {
	b := make([]byte, 0, 256)
	b = append(b, `{"workload":`...)
	b = appendJSONString(b, d.label)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, string(d.kind))
	b = append(b, `,"digest":`...)
	b = appendJSONString(b, d.digest)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached || res.fromStore)
	if req.Shards != 0 {
		b = append(b, `,"shards":`...)
		b = strconv.AppendInt(b, int64(req.Shards), 10)
	}
	b = append(b, `,"evaluated":`...)
	b = strconv.AppendInt(b, res.evaluated, 10)
	b = append(b, `,"elapsed_ms":`...)
	b = strconv.AppendInt(b, res.elapsed.Milliseconds(), 10)
	b = append(b, `,"points":`...)
	b = strconv.AppendInt(b, int64(res.curve.Len()), 10)
	b = append(b, ',')
	status := http.StatusOK
	if res.degraded != nil {
		status = http.StatusPartialContent
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(b)
	_, _ = w.Write(res.fields)
}

// fail answers a failed request of either endpoint from the one failure
// table, which maps err to the status, code and Retry-After clients see.
// A context error is classified by who cancelled it: server shutdown (503
// draining), the request's deadline (504 deadline), or the client hanging
// up (no body: nobody is listening). ctx is the request's context.
func (s *Server) fail(w http.ResponseWriter, ctx context.Context, err error) {
	var pe *traverse.PanicError
	cancelled := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	switch {
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, "draining",
			"server is draining; retry against another replica", time.Second)
	case errors.Is(err, errSaturated):
		s.stats.saturated.Add(1)
		writeError(w, http.StatusTooManyRequests, "saturated",
			"derivation capacity and queue are full; retry later or elsewhere", s.cfg.QueueWait)
	case errors.As(err, &pe):
		writeError(w, http.StatusInternalServerError, "panic",
			"derivation panicked; see server logs", 0)
	case errors.Is(err, errInvalidCurve):
		writeError(w, http.StatusInternalServerError, "invalid_curve", err.Error(), 0)
	case cancelled && s.base.Err() != nil:
		writeError(w, http.StatusServiceUnavailable, "draining",
			"derivation cancelled by server shutdown; sharded progress is checkpointed", time.Second)
	case cancelled && errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.stats.deadlines.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline",
			"derivation exceeded the request deadline; sharded progress is checkpointed", 0)
	case cancelled && ctx.Err() != nil:
		// The client hung up: nobody is listening; write nothing.
	default:
		// Any other failure, including a derivation that cancelled itself.
		writeError(w, http.StatusInternalServerError, "internal", err.Error(), 0)
	}
}

// guard is the one guarded run of both endpoints. It registers with the
// drain barrier (errDraining once draining), answers from lookup when
// that reports a hit — so a store hit takes no slot — and otherwise runs
// run holding an admission slot, queueing under ctx. A panic in lookup
// or run is contained: it returns as a *traverse.PanicError, with the
// stack logged under what and panics_recovered counted.
func (s *Server) guard(ctx context.Context, what string, lookup func() bool, run func() error) (err error) {
	if !s.enter() {
		return errDraining
	}
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			err = traverse.Recovered(r)
		}
		var pe *traverse.PanicError
		if errors.As(err, &pe) {
			s.stats.panics.Add(1)
			s.logf("serve: recovered panic in %s: %v\n%s", what, pe.Value, pe.Stack)
		}
	}()
	if lookup != nil && lookup() {
		return nil
	}
	if err := s.adm.acquire(ctx); err != nil {
		return err
	}
	defer s.adm.release()
	return run()
}

// leadCurve returns the leader of d's flight: the guarded run of the
// disk-tier lookup and the derivation, under the flight context — a child
// of the server lifetime, cancelled early only when every waiter has left
// or the server shuts down. The durable store is consulted inside the
// flight, so the single flight spans both cache tiers: a stampede of
// identical requests costs one disk read — or, past it, one derivation —
// never N.
func (s *Server) leadCurve(d *derivation, shards int, allowPartial, noCache bool) func(context.Context) (result, error) {
	return func(ctx context.Context) (res result, err error) {
		start := time.Now()
		lookup := func() (ok bool) {
			if !noCache {
				res, ok = s.diskGet(d)
			}
			return ok
		}
		err = s.guard(ctx, fmt.Sprintf("derivation %s (%.12s)", d.label, d.digest), lookup, func() (err error) {
			fn := d.run
			if shards > 1 {
				fn = s.spooledDerive(d, shards, allowPartial)
			}
			if s.cfg.deriveWrap != nil {
				fn = s.cfg.deriveWrap(d, fn)
			}
			if err = d.prepare(ctx); err != nil {
				return err
			}
			res.deriveOut, err = fn(ctx)
			return err
		})
		if !res.fromStore {
			// A disk hit replays the original derivation's cost figures.
			res.elapsed = time.Since(start)
		}
		if err == nil {
			// Encoding validates the curve, so an invalid one is never persisted.
			res.fields, err = encodeResultFields(res.deriveOut)
		}
		if err == nil && !res.fromStore {
			s.stats.derivations.Add(1)
			s.stats.evaluated.Add(res.evaluated)
			s.stats.deriveNanos.Add(int64(res.elapsed))
			s.diskPut(d, res)
		}
		return res, err
	}
}

// diskGet consults the durable curve tier for the derivation's digest.
// Misses (absent, disabled, quarantined-as-corrupt) return ok=false and
// the flight derives as usual. A hit republishes through the flight
// finish, so it also refreshes the memory LRU.
func (s *Server) diskGet(d *derivation) (result, bool) {
	if s.disk == nil {
		return result{}, false
	}
	ent, ok := s.disk.Get(d.digest)
	if !ok {
		return result{}, false
	}
	s.stats.storeHits.Add(1)
	return result{
		deriveOut: deriveOut{
			curve:     ent.Curve,
			evaluated: ent.Evaluated,
			segments:  ent.Segments,
		},
		elapsed:   time.Duration(ent.ElapsedMS) * time.Millisecond,
		fromStore: true,
	}, true
}

// diskPut persists a successful exact derivation to the durable tier; a
// degraded curve is never persisted (nor cached in memory). Write
// failures are the store's problem — it degrades itself — and never the
// request's.
func (s *Server) diskPut(d *derivation, res result) {
	if s.disk == nil || res.curve.Degraded {
		return
	}
	err := s.disk.Put(d.digest, &store.Entry{
		Kind:      d.kind,
		Workload:  d.label,
		Evaluated: res.evaluated,
		ElapsedMS: res.elapsed.Milliseconds(),
		Curve:     res.curve,
		Segments:  res.segments,
	})
	switch {
	case err == nil:
		s.stats.storeWrites.Add(1)
	case errors.Is(err, store.ErrDisabled):
		// Already logged once by the store itself.
	default:
		s.logf("serve: persisting %s (%.12s) to curve store: %v", d.label, d.digest, err)
	}
}

// spooledDerive runs the derivation as a sharded, checkpointed
// fleet.Run in the spool directory. The subdirectory is the derivation
// digest, so an interrupted run's partial frontiers are found — and
// resumed, not recomputed — by any later server process given the same
// spool. Membership is consulted per request, not per process: while the
// server-lifetime registry (seeded from Config.FleetWorkers, reconciled
// by SetFleetWorkers) has members, the slices are dispatched to them and
// their health, breaker and throughput state carries across requests;
// an empty one runs the shards in process. On exact success the
// subdirectory is removed; on cancellation AND on a degraded
// (allow_partial) merge it is kept as the resume point, so a later
// identical request completes the missing slices instead of starting
// over.
func (s *Server) spooledDerive(d *derivation, shards int, allowPartial bool) deriveFn {
	return func(ctx context.Context) (deriveOut, error) {
		var out deriveOut
		dir := filepath.Join(s.cfg.SpoolDir, fmt.Sprintf("%.16s", d.digest))
		if err := s.cfg.fs.MkdirAll(dir); err != nil {
			return out, fmt.Errorf("serve: creating spool %s: %w", dir, err)
		}
		// Make the spool self-describing before any shard runs: with
		// spec.json in place, a server that dies mid-derivation leaves an
		// orphan that ResumeOrphans can finish without ever seeing the
		// original request. Failure to write it is logged, not fatal — the
		// derivation itself does not depend on it.
		if err := writeSpoolSpec(s.cfg.fs, dir, d, shards); err != nil {
			s.logf("serve: writing %s in spool %s: %v", spoolSpecFile, dir, err)
		}
		report, err := fleet.Run(ctx, shards, d.mkJob, fleet.Options{
			Dir:             dir,
			CheckpointEvery: s.cfg.CheckpointEvery,
			MaxRetries:      s.cfg.ShardRetries,
			AllowPartial:    allowPartial,
			Logf:            s.cfg.Logf,
			FS:              s.cfg.fs,
			OnCheckpoint:    s.cfg.OnCheckpoint,
			Registry:        s.fleetReg,
			SpeculateAfter:  s.cfg.FleetSpeculateAfter,
			Client:          s.cfg.FleetClient,
		})
		if report != nil {
			for _, st := range report.Shards {
				out.evaluated += st.Evaluated
			}
		}
		if err != nil {
			return out, err
		}
		out.curve = report.Curve
		if out.curve.Degraded {
			out.degraded = report.Degraded
			return out, nil
		}
		if rmErr := s.cfg.fs.RemoveAll(dir); rmErr != nil {
			s.logf("serve: cleaning spool %s: %v", dir, rmErr)
		}
		return out, nil
	}
}

// SetFleetWorkers reconciles the fleet membership at runtime — the
// flag-file reload path: workers missing from urls join with fresh
// state, members absent from urls leave (in-flight dispatches to them
// finish; they just get no new ones), and workers present in both keep
// their health, breaker, and throughput history. Shards blocked waiting
// for fleet capacity observe joins immediately. Returns how many
// workers joined and left.
func (s *Server) SetFleetWorkers(urls []string) (added, removed int) {
	return s.fleetReg.SetWorkers(urls)
}

// HealthDetail is the body of /healthz and /readyz: the status plus the
// worker-health detail a fleet coordinator (or operator) reads when the
// plain status code is not enough.
type HealthDetail struct {
	// Status is "ok"/"ready" or "draining".
	Status string `json:"status"`
	// Draining reports admissions closed for shutdown.
	Draining bool `json:"draining,omitempty"`
	// InFlight derivations hold slots now; QueueDepth flights wait.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`
	// WorkerEnabled reports whether this process serves POST /v1/shard
	// for fleet coordinators.
	WorkerEnabled bool `json:"worker_enabled"`
}

// healthDetail assembles the shared health body.
func (s *Server) healthDetail(status string) HealthDetail {
	return HealthDetail{
		Status:        status,
		Draining:      s.draining.Load(),
		InFlight:      s.adm.inFlight(),
		QueueDepth:    s.adm.queueDepth(),
		WorkerEnabled: s.cfg.WorkerDir != "",
	}
}

// handleHealthz is liveness: 200 as long as the process serves HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.healthDetail("ok"))
}

// handleReadyz is readiness: 200 while accepting work, 503 once
// draining — load balancers stop routing before the listener closes,
// and fleet registries probing this endpoint demote the worker.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, s.healthDetail("draining"))
		return
	}
	writeJSON(w, http.StatusOK, s.healthDetail("ready"))
}

// handleStats is GET /stats: the Stats snapshot.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}
