// Package bench is orobench's library: four workloads that drive the
// derivation engine, the server, the durable store and the sharded fleet
// from outside, by timing calls into their public functions and HTTP
// endpoints; the golden curves that check every answer; and the metric
// table shared by the runner, the compare command and BENCHMARK.json.
package bench

import (
	"context"
	"time"

	"repro/bench/internal/span"
)

// Kind says where a metric is reported.
type Kind int

const (
	// EndToEnd metrics are what a user of the system sees. Every
	// workload reports every one of them, and BENCHMARK.json bounds how
	// far each may regress.
	EndToEnd Kind = iota
	// Detail metrics are end-to-end numbers that only some workloads
	// have (open-loop latency, a fleet pass) or that are too noisy on a
	// shared host to bound (raw wall times, peak RSS). They are printed and
	// compared, but not declared in BENCHMARK.json.
	Detail
	// Layer metrics are measured on every workload by a traced run and
	// declared as BENCHMARK.json's per_layer metrics.
	Layer
	// LayerDetail metrics are layer timings that only the workloads
	// exercising that layer have; they are written to trace.json.
	LayerDetail
)

// Metric describes one reported number.
type Metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before a change counts as a regression.
	Bound float64
	Kind  Kind
}

// Metrics is the full metric table, in report order.
var Metrics = []Metric{
	{"setup_s", "s", "lower", 0.25, EndToEnd},
	{"pass_s", "s", "lower", 0.25, EndToEnd},
	{"latency_ms", "ms", "lower", 0.25, EndToEnd},
	{"cpu_s_per_pass", "s", "lower", 0.25, EndToEnd},

	{"latency_tail_ms", "ms", "lower", 0.20, Detail},
	{"max_rss_mb", "MB", "lower", 0.25, Detail},
	{"ref_ms", "ms", "lower", 0.25, Detail},
	{"ref_cpu_ms", "ms", "lower", 0.25, Detail},
	{"setup_wall_s", "s", "lower", 0.25, Detail},
	{"pass_wall_s", "s", "lower", 0.25, Detail},
	{"latency_wall_p50_ms", "ms", "lower", 0.25, Detail},
	{"open_p50_ms", "ms", "lower", 0.25, Detail},
	{"open_tail_ms", "ms", "lower", 0.25, Detail},
	{"miss_p50_ms", "ms", "lower", 0.25, Detail},
	{"serve_rps", "1/s", "higher", 0.25, Detail},
	{"inproc_pass_s", "s", "lower", 0.10, Detail},
	{"supervised_pass_s", "s", "lower", 0.10, Detail},
	{"fleet_pass_s", "s", "lower", 0.10, Detail},
	{"fail_frac", "frac", "lower", 0, Detail},

	{"mapping.ns_per_mapping", "ns", "lower", 0.10, Layer},
	{"mapping.orders_per_tiling", "count", "lower", 0, Layer},
	{"snowcat.ns_per_eval", "ns", "lower", 0.10, Layer},
	{"pareto.ns_per_add", "ns", "lower", 0.10, Layer},
	{"pareto.frontier_points", "count", "higher", 0, Layer},
	{"traverse.efficiency", "frac", "higher", 0.10, Layer},
	{"traverse.chunks", "count", "lower", 0, Layer},
	{"runtime.alloc_mb_per_pass", "MB", "lower", 0.10, Layer},
	{"runtime.gc_cpu_frac", "frac", "lower", 0.10, Layer},
	{"workload.evaluated_per_pass", "count", "lower", 0, Layer},
	{"store.get_us", "us", "lower", 0.10, Layer},
	{"store.put_ms", "ms", "lower", 0.10, Layer},
	{"store.quarantines", "count", "lower", 0, Layer},
	{"shard.merge_ms", "ms", "lower", 0.10, Layer},
	{"bench.trace_overhead_frac", "frac", "lower", 0.10, Layer},
	{"serve.mem_hit_ratio", "frac", "higher", 0.10, Layer},
	{"store.hit_ratio", "frac", "higher", 0.10, Layer},
	{"serve.derivations_per_pass", "count", "lower", 0.10, Layer},
	{"serve.saturated", "count", "lower", 0, Layer},
	{"serve.queue_depth_mean", "count", "lower", 0.10, Layer},
	{"serve.in_flight_mean", "count", "lower", 0.10, Layer},
	{"fleet.dispatches_per_pass", "count", "lower", 0, Layer},
	{"fleet.retries", "count", "lower", 0, Layer},
	{"shard.checkpoints_per_pass", "count", "lower", 0.10, Layer},
	{"shard.partial_kb_per_pass", "KB", "lower", 0.10, Layer},
	{"supervise.overhead_ratio", "ratio", "lower", 0.10, Layer},
	{"fleet.overhead_ratio", "ratio", "lower", 0.10, Layer},

	{"gen.late_p95_ms", "ms", "lower", 0.10, LayerDetail},
	{"serve.handler_hit_us", "us", "lower", 0.10, LayerDetail},
	{"serve.handler_miss_ms", "ms", "lower", 0.10, LayerDetail},
	{"serve.client_overhead_us", "us", "lower", 0.10, LayerDetail},
	{"fleet.dispatch_ms", "ms", "lower", 0.10, LayerDetail},
	{"fleet.worker_shard_ms", "ms", "lower", 0.10, LayerDetail},
	{"fleet.transfer_ms", "ms", "lower", 0.10, LayerDetail},
	{"fleet.coord_tail_ms", "ms", "lower", 0.10, LayerDetail},
	{"bound.run_s", "s", "lower", 0.10, LayerDetail},
	{"multilevel.run_s", "s", "lower", 0.10, LayerDetail},
	{"fusion.tiled_run_s", "s", "lower", 0.10, LayerDetail},
	{"fusion.segmentation_run_s", "s", "lower", 0.10, LayerDetail},
}

// Options configures one workload run.
type Options struct {
	// Seed generates every input: spec order, catalog, traffic, arrivals.
	Seed uint64
	// Duration is how long the workload measures.
	Duration time.Duration
	// Ref measures the host's speed for reference scaling, in another
	// process than the workload (see ref.go). It is required.
	Ref *PipeRef
	// Tracer, when non-nil, makes this a traced run: alternate passes
	// record spans, and the layer decomposition and probes run after the
	// measured phase.
	Tracer *span.Tracer
	// Short shrinks inputs to a smoke-test size.
	Short bool
	// Dir is a scratch directory for stores, spools and worker
	// checkpoints; the workload removes nothing outside it.
	Dir string
}

// traced reports whether pass i of a traced run records spans: traced
// runs alternate untraced and traced passes so the tracing overhead can
// be measured in the same process.
func (o Options) traced(i int) *span.Tracer {
	if i%2 == 1 {
		return o.Tracer
	}
	return nil
}

// timer returns the run's reference timer for references of kind.
func (o Options) timer(kind RefKind) refTimer { return refTimer{ref: o.Ref, kind: kind} }

// minPasses is the fewest passes a run makes, whatever its duration: two
// of each kind when traced.
func (o Options) minPasses() int {
	if o.Tracer != nil {
		return 4
	}
	return 2
}

// Result is what one workload run measured.
type Result struct {
	Workload string `json:"workload"`
	// Metrics holds the end-to-end and detail metrics; Layers the layer
	// metrics of a traced run.
	Metrics map[string]float64 `json:"metrics"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	// Samples counts what each median or percentile was taken over.
	Samples map[string]int `json:"samples"`
	// Passes holds the scaled time of every untraced pass, in run order:
	// the sample pass_s is the median of.
	Passes []float64 `json:"passes"`
	// Attempted counts timed operations and checks; Failed those that
	// returned an error, a non-2xx status or a wrong curve, of which
	// Mismatches are the wrong curves.
	Attempted  int64 `json:"attempted"`
	Failed     int64 `json:"failed"`
	Mismatches int64 `json:"mismatches"`
	// Invalid lists the validity rules the run broke; such a run is
	// recorded but left out of comparisons.
	Invalid []string `json:"invalid,omitempty"`
	// Notes carries labels such as which percentile latency_tail_ms is.
	Notes map[string]string `json:"notes,omitempty"`
}

func newResult(name string) *Result {
	return &Result{
		Workload: name,
		Metrics:  map[string]float64{},
		Layers:   map[string]float64{},
		Samples:  map[string]int{},
		Notes:    map[string]string{},
	}
}

// check counts one attempted operation and whether it failed.
func (r *Result) check(ok bool) {
	r.Attempted++
	if !ok {
		r.Failed++
	}
}

// mismatch counts one attempted curve check that failed.
func (r *Result) mismatch() {
	r.Attempted++
	r.Failed++
	r.Mismatches++
}

// finish sets the failure fraction and, for a traced run, gives every
// layer metric a value.
func (r *Result) finish(traced bool) {
	if r.Attempted > 0 {
		r.Metrics["fail_frac"] = float64(r.Failed) / float64(r.Attempted)
	}
	if traced {
		r.fillLayers()
	}
}

// Workload is one named benchmark input set.
type Workload struct {
	Name string
	// Why records what the workload stresses and why it was chosen.
	Why string
	Run func(ctx context.Context, o Options) (*Result, error)
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{"derive-conv", "Fig. 12 convs and Fig. 13 BMMs in-process: 4-6 ranks, so loop-order expansion dominates and mapping/snowcat changes show most", runDeriveConv},
	{"derive-mixed", "imperfect, spill-charged, multilevel and fusion specs in-process: 3 ranks, so pareto, multilevel and fusion dominate and loop orders matter little", runDeriveMixed},
	{"serve-zipf", "loopback server over a store warmed with GPT-3 family layer shapes: Zipf(1.1) traffic plus 1% unseen shapes, open then closed loop; serve, LRU, store dominate", runServeZipf},
	{"shard-fleet", "no-cache requests supervised in 4 shards and dispatched to a 2-worker loopback fleet (in-process too when traced): shard, spool and fleet overheads dominate", runShardFleet},
}

// Find returns the workload named name.
func Find(name string) (Workload, bool) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}
