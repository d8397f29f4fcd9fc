package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/bench/internal/stat"
	"repro/internal/bound"
	"repro/internal/mapping"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/snowcat"
	"repro/internal/store"
	"repro/internal/traverse"
	"repro/internal/workload"
)

// meter is a snapshot of the Go runtime's allocation and CPU accounting.
type meter struct {
	alloc         uint64  // cumulative heap bytes allocated
	gcCPU, allCPU float64 // runtime/metrics CPU-seconds estimates
}

func readMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return meter{alloc: ms.TotalAlloc, gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

// runtimeLayers records the allocation and GC share between m0 and m1,
// over passes.
func (r *Result) runtimeLayers(m0, m1 meter, passes int) {
	r.Layers["runtime.alloc_mb_per_pass"] = float64(m1.alloc-m0.alloc) / (1 << 20) / float64(max(passes, 1))
	if d := m1.allCPU - m0.allCPU; d > 0 {
		r.Layers["runtime.gc_cpu_frac"] = (m1.gcCPU - m0.gcCPU) / d
	}
}

// setSetup records the median of the set-up repetitions, scaled (by the
// median of their references) and raw.
func (r *Result) setSetup(ops []op) {
	var refs []time.Duration
	for _, o := range ops {
		refs = append(refs, o.ref)
	}
	k := scale(refNominal, refs)
	var scaled, wall []float64
	for _, o := range ops {
		scaled = append(scaled, k*o.wall.Seconds())
		wall = append(wall, o.wall.Seconds())
	}
	r.Metrics["setup_s"] = stat.Median(scaled)
	r.Metrics["setup_wall_s"] = stat.Median(wall)
}

// setTimes records the pass and latency metrics of the untraced passes in
// t: reference-scaled medians as the end-to-end metrics, wall-clock
// medians as details, and the scaled tail percentile the sample supports.
func (r *Result) setTimes(t *tally) {
	r.Metrics["pass_s"] = stat.Median(t.passScaled)
	r.Passes = t.passScaled
	r.Metrics["pass_wall_s"] = stat.Median(t.passWall)
	r.Metrics["cpu_s_per_pass"] = stat.Median(t.passCPU)
	r.Metrics["ref_ms"] = stat.Median(t.refs)
	r.Metrics["ref_cpu_ms"] = stat.Median(t.refsCPU)
	r.Samples["passes"] = len(t.passScaled)
	r.Metrics["latency_ms"] = t.latency()
	r.Metrics["latency_wall_p50_ms"] = stat.Median(t.opsWall)
	r.Samples["latency"] = len(t.opsScaled)
	r.Samples["latency_ops"] = len(t.byName)
	if p, ok := stat.TailPercentile(len(t.opsScaled)); ok {
		r.Metrics["latency_tail_ms"] = stat.Percentile(t.opsScaled, p)
		r.Notes["latency_tail_ms"] = fmt.Sprintf("p%g of %d", p, len(t.opsScaled))
	}
}

// traceOverhead records how much slower traced passes ran than untraced
// ones, as a fraction of the untraced median.
func (r *Result) traceOverhead(untraced, traced []float64) {
	if len(untraced) > 0 && len(traced) > 0 {
		u := stat.Median(untraced)
		r.Layers["bench.trace_overhead_frac"] = (stat.Median(traced) - u) / u
	}
}

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median. Each set-up is scaled by setupRefs references.
const (
	setupRepeats = 3
	setupRefs    = 5
)

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// decompose splits the derivation of each bound spec into its layers with
// three traverse.FrontierRange passes at the default worker count:
// enumerate (mapping.Enum.Visit), enumerate and evaluate
// (snowcat.Evaluator), then enumerate, evaluate and insert
// (pareto.Builder.Add). Differences between passes give each layer's
// share. Each pass is paired with a CPU reference and a spec's three
// passes are scaled by the median of their references, so host drift does
// not leak into the differences. The third
// pass's curve must be byte-identical to want[i], the curve
// bound.DeriveRange produced for the same spec.
func decompose(ctx context.Context, h refTimer, specs []*workload.Spec, want []*pareto.Curve, r *Result) error {
	var visitNS, evalNS, addNS float64
	var mappings, tilings, points, chunks, busy, capacity int64
	for i, s := range specs {
		if s.Kind != shard.KindBound {
			continue
		}
		e := s.Einsum
		opts := bound.Options{}
		if s.Bound != nil {
			opts.ImperfectExtra, opts.ChargeSpills = s.Bound.ImperfectExtra, s.Bound.ChargeSpills
		}
		en := mapping.NewEnum(e)
		if opts.ImperfectExtra > 0 {
			en = mapping.NewImperfectEnum(e, opts.ImperfectExtra)
		}
		// newEval picks the evaluator bound.DeriveRange would use.
		newEval := func() func(*mapping.Mapping) (int64, int64) {
			ev := snowcat.NewEvaluator(e)
			switch {
			case opts.ImperfectExtra > 0:
				return ev.EvaluateImperfectCompact
			case opts.ChargeSpills:
				return ev.EvaluateCompactSpillCharged
			}
			return ev.EvaluateCompact
		}
		n := en.Tilings()
		var curve *pareto.Curve
		var st traverse.Stats
		var refs []time.Duration
		pass := func(chunk func(eval func(*mapping.Mapping) (int64, int64)) traverse.ChunkFunc) (wall time.Duration, err error) {
			d, rerr := h.time(func() {
				curve, st, err = traverse.FrontierRange(ctx, 0, n, 0, func() traverse.ChunkFunc { return chunk(newEval()) })
			})
			if rerr != nil {
				return 0, rerr
			}
			refs = append(refs, d.ref)
			return d.wall, err
		}
		var sink atomic.Int64
		visit, err := pass(func(func(*mapping.Mapping) (int64, int64)) traverse.ChunkFunc {
			return func(lo, hi int64, _ *pareto.Builder) int64 {
				var c int64
				en.Visit(lo, hi, func(*mapping.Mapping) { c++ })
				return c
			}
		})
		if err != nil {
			return err
		}
		visited := st.Evaluated
		eval, err := pass(func(eval func(*mapping.Mapping) (int64, int64)) traverse.ChunkFunc {
			return func(lo, hi int64, _ *pareto.Builder) int64 {
				var c, acc int64
				en.Visit(lo, hi, func(m *mapping.Mapping) {
					b, a := eval(m)
					acc += b ^ a // keeps the evaluation live
					c++
				})
				sink.Add(acc)
				return c
			}
		})
		if err != nil {
			return err
		}
		var nchunks, busyNS atomic.Int64
		add, err := pass(func(eval func(*mapping.Mapping) (int64, int64)) traverse.ChunkFunc {
			return func(lo, hi int64, b *pareto.Builder) int64 {
				cs := time.Now()
				var c int64
				en.Visit(lo, hi, func(m *mapping.Mapping) {
					b.Add(eval(m))
					c++
				})
				busyNS.Add(time.Since(cs).Nanoseconds())
				nchunks.Add(1)
				return c
			}
		})
		if err != nil {
			return err
		}
		curve.AlgoMinBytes, curve.TotalOperandBytes = e.AlgorithmicMinBytes(), e.TotalOperandBytes()
		if curve.Canonical() != want[i].Canonical() {
			r.mismatch()
		} else {
			r.check(true)
		}
		k := 1e9 * scale(refNominal, refs)
		visitNS += k * visit.Seconds()
		evalNS += k * eval.Seconds()
		addNS += k * add.Seconds()
		mappings += visited
		tilings += n
		points += int64(curve.Len())
		chunks += nchunks.Load()
		busy += busyNS.Load()
		capacity += int64(traverse.WorkerCount(n, 0)) * add.Nanoseconds()
	}
	if mappings == 0 {
		return fmt.Errorf("bench: no bound spec to decompose")
	}
	m := float64(mappings)
	r.Layers["mapping.ns_per_mapping"] = visitNS / m
	r.Layers["snowcat.ns_per_eval"] = (evalNS - visitNS) / m
	r.Layers["pareto.ns_per_add"] = (addNS - evalNS) / m
	r.Layers["mapping.orders_per_tiling"] = m / float64(tilings)
	r.Layers["pareto.frontier_points"] = float64(points)
	r.Layers["traverse.chunks"] = float64(chunks)
	r.Layers["traverse.efficiency"] = float64(busy) / float64(capacity)
	return nil
}

// storeProbe times durable store.Put (write, fsync, rename, directory
// fsync) and verified store.Get of ents in dir, a directory the workload's
// own curves live in or are written to.
func storeProbe(dir string, ents map[string]*store.Entry, r *Result) error {
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	digests := make([]string, 0, len(ents))
	for d := range ents {
		digests = append(digests, d)
	}
	sort.Strings(digests)
	var puts, gets []float64
	for _, d := range digests {
		t := time.Now()
		if err := st.Put(d, ents[d]); err != nil {
			return err
		}
		puts = append(puts, ms(time.Since(t)))
	}
	for _, d := range digests {
		t := time.Now()
		ent, ok := st.Get(d)
		gets = append(gets, float64(time.Since(t).Microseconds()))
		r.check(ok && ent.Curve.Canonical() == ents[d].Curve.Canonical())
	}
	r.Layers["store.put_ms"] = stat.Median(puts)
	r.Layers["store.get_us"] = stat.Median(gets)
	r.Layers["store.quarantines"] = float64(st.StatsSnapshot().Quarantines)
	r.Samples["store_probe"] = len(digests)
	return nil
}

// probeLayers runs a traced run's layer probes on the workload's own specs
// and the curves its passes derived: the decomposition of the bound specs,
// store.Put and Get of every curve in storeDir, and shard.Merge over the
// first bound spec's partials.
func probeLayers(ctx context.Context, o Options, r *Result, specs []*workload.Spec, curves []*pareto.Curve, storeDir string) error {
	ents := map[string]*store.Entry{}
	probe := -1
	for i, s := range specs {
		if curves[i] == nil {
			return fmt.Errorf("bench: %s derived no curve", s.Describe())
		}
		_, digest, err := store.Identity(s)
		if err != nil {
			return err
		}
		ents[digest] = &store.Entry{Kind: s.Kind, Workload: s.Describe(), Curve: curves[i]}
		if probe < 0 && s.Kind == shard.KindBound {
			probe = i
		}
	}
	if probe < 0 {
		return fmt.Errorf("bench: no bound spec to probe")
	}
	if err := decompose(ctx, o.timer(RefCPU), specs, curves, r); err != nil {
		return err
	}
	if err := storeProbe(storeDir, ents, r); err != nil {
		return err
	}
	return mergeProbe(ctx, filepath.Join(o.Dir, "merge-probe"), specs[probe], curves[probe], r)
}

// mergeProbe derives spec as four checkpointed shard.Run partials in dir,
// then times shard.Merge over them. The merge must reproduce want.
func mergeProbe(ctx context.Context, dir string, s *workload.Spec, want *pareto.Curve, r *Result) error {
	const shards, repeats = 4, 50
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	parts := make([]*shard.Partial, shards)
	for k := range parts {
		job, err := s.Compile(shard.Plan{Index: k, Count: shards}, workload.Exec{})
		if err != nil {
			return err
		}
		p, _, err := shard.Run(ctx, job, shard.RunOptions{Path: filepath.Join(dir, fmt.Sprintf("shard-%d.json", k))})
		if err != nil {
			return err
		}
		parts[k] = p
	}
	var ts []float64
	for i := 0; i < repeats; i++ {
		t := time.Now()
		c, err := shard.Merge(parts...)
		ts = append(ts, ms(time.Since(t)))
		if err != nil {
			return err
		}
		if i == 0 {
			r.check(c.Canonical() == want.Canonical())
		}
	}
	r.Layers["shard.merge_ms"] = stat.Median(ts)
	return nil
}

// fillLayers sets every layer metric a run did not measure to 0, which
// reads "this workload does not exercise that layer". Only counts and
// ratios can be missing: the smoke test checks every workload measures
// each timed layer metric.
func (r *Result) fillLayers() {
	for _, m := range Metrics {
		if _, ok := r.Layers[m.Name]; !ok && m.Kind == Layer {
			r.Layers[m.Name] = 0
		}
	}
}
