package serve

import (
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/store"
)

// counters is the server's lock-free operational telemetry.
type counters struct {
	requests    atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	derivations atomic.Int64
	panics      atomic.Int64
	saturated   atomic.Int64
	deadlines   atomic.Int64
	evaluated   atomic.Int64
	deriveNanos atomic.Int64

	// Durable curve store tier (zero when -store-dir is unset).
	storeHits   atomic.Int64
	storeWrites atomic.Int64

	// Worker side of the fleet protocol (POST /v1/shard); the
	// coordinator side's totals live in the fleet registry.
	workerRequests atomic.Int64
	workerShards   atomic.Int64
}

// Stats is the GET /stats response: a point-in-time snapshot of the
// server's health and throughput. Counters are cumulative since process
// start; rates are derived from them at snapshot time.
type Stats struct {
	// UptimeSeconds since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Draining reports whether admissions are closed for shutdown.
	Draining bool `json:"draining"`

	// Requests counts every request to /v1/curve.
	Requests int64 `json:"requests"`
	// CacheHits and CacheMisses split curve requests by cache outcome;
	// CacheHitRate is hits over their sum (0 when no lookups yet).
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
	// CacheEntries of CacheCapacity results currently live in the LRU.
	CacheEntries  int `json:"cache_entries"`
	CacheCapacity int `json:"cache_capacity"`

	// InFlight derivations hold slots now; QueueDepth flights wait for
	// one.
	InFlight   int `json:"in_flight"`
	QueueDepth int `json:"queue_depth"`

	// Derivations counts completed (successful) derivations;
	// PanicsRecovered, Saturated and DeadlineExpired count the failure
	// modes the server absorbed (worker panic contained to a 500, load
	// shed with 429, request deadline expired with 504).
	Derivations     int64 `json:"derivations"`
	PanicsRecovered int64 `json:"panics_recovered"`
	Saturated       int64 `json:"saturated"`
	DeadlineExpired int64 `json:"deadline_expired"`

	// MappingsEvaluated is the cumulative mapping count across all
	// successful derivations; DeriveSeconds the wall time they took; and
	// MappingsPerSec their ratio — the server-wide traversal throughput.
	MappingsEvaluated int64   `json:"mappings_evaluated"`
	DeriveSeconds     float64 `json:"derive_seconds"`
	MappingsPerSec    float64 `json:"mappings_per_sec"`

	// WorkerRequests counts every request to the fleet worker endpoint
	// POST /v1/shard; WorkerShards the shard slices this process derived
	// to completion for remote coordinators.
	WorkerRequests int64 `json:"worker_requests"`
	WorkerShards   int64 `json:"worker_shards"`

	// Coordinator-side fleet totals (fleet.Registry.Totals; zero unless
	// the server dispatches to -fleet workers): FleetDispatches counts
	// shard dispatches (including speculative duplicates), FleetRetries
	// retry rounds after failed dispatches, FleetSpeculations
	// speculative duplicates launched on stragglers, FleetQuarantines
	// invalid responses (and corrupt spool partials) set aside,
	// FleetDeferrals polite Retry-After deferrals honored without
	// burning retry budget.
	FleetDispatches   int64 `json:"fleet_dispatches"`
	FleetRetries      int64 `json:"fleet_retries"`
	FleetSpeculations int64 `json:"fleet_speculations"`
	FleetQuarantines  int64 `json:"fleet_quarantines"`
	FleetDeferrals    int64 `json:"fleet_deferrals"`

	// FleetWorkersGauges is the fleet membership split by health and
	// breaker state, and FleetWorkerDetail the per-worker rows (probed
	// health, breaker, dispatches/failures/completions, EWMA shards/sec).
	// Both absent when the membership is empty.
	FleetWorkersGauges *fleet.Gauges        `json:"fleet_workers,omitempty"`
	FleetWorkerDetail  []fleet.WorkerStatus `json:"fleet_worker_detail,omitempty"`

	// StoreHits counts curve requests served from the durable on-disk
	// tier, and StoreWrites the derivations persisted to it. Store is the
	// store's own gauge block (counters, live entry/byte scan, cap).
	// All absent unless the server was started with -store-dir;
	// StoreDisabled is true when the configured store failed to open or
	// degraded at runtime (the server falls back to memory-only caching).
	StoreHits     int64        `json:"store_hits,omitempty"`
	StoreWrites   int64        `json:"store_writes,omitempty"`
	Store         *store.Stats `json:"store,omitempty"`
	StoreDisabled bool         `json:"store_disabled,omitempty"`
}

// Snapshot assembles the current Stats.
func (s *Server) Snapshot() Stats {
	hits, misses := s.stats.hits.Load(), s.stats.misses.Load()
	var rate float64
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	nanos := s.stats.deriveNanos.Load()
	fleet := s.fleetReg.Totals()
	eval := s.stats.evaluated.Load()
	var mps float64
	if nanos > 0 {
		mps = float64(eval) / (time.Duration(nanos)).Seconds()
	}
	st := Stats{
		UptimeSeconds:     time.Since(s.started).Seconds(),
		Draining:          s.draining.Load(),
		Requests:          s.stats.requests.Load(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheHitRate:      rate,
		CacheEntries:      s.mem.len(),
		CacheCapacity:     s.cfg.CacheEntries,
		InFlight:          s.adm.inFlight(),
		QueueDepth:        s.adm.queueDepth(),
		Derivations:       s.stats.derivations.Load(),
		PanicsRecovered:   s.stats.panics.Load(),
		Saturated:         s.stats.saturated.Load(),
		DeadlineExpired:   s.stats.deadlines.Load(),
		MappingsEvaluated: eval,
		DeriveSeconds:     (time.Duration(nanos)).Seconds(),
		MappingsPerSec:    mps,
		WorkerRequests:    s.stats.workerRequests.Load(),
		WorkerShards:      s.stats.workerShards.Load(),
		FleetDispatches:   fleet.Dispatches,
		FleetRetries:      fleet.Retries,
		FleetSpeculations: fleet.Speculations,
		FleetQuarantines:  fleet.Quarantines,
		FleetDeferrals:    fleet.Deferrals,
	}
	if g := s.fleetReg.Gauges(); g.Total > 0 {
		st.FleetWorkersGauges = &g
		st.FleetWorkerDetail = s.fleetReg.Snapshot()
	}
	if s.cfg.StoreDir != "" {
		st.StoreHits = s.stats.storeHits.Load()
		st.StoreWrites = s.stats.storeWrites.Load()
		if s.disk != nil {
			ss := s.disk.StatsSnapshot()
			st.Store = &ss
			st.StoreDisabled = ss.Disabled
		} else {
			st.StoreDisabled = true
		}
	}
	return st
}
