package bench

import (
	"context"
	"errors"
	"math/rand/v2"
	"path/filepath"
	"time"

	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/workload"
)

// Seed streams: each kind of random choice draws from its own stream of
// the run's seed, so one choice never shifts another.
const (
	streamOrder uint64 = iota + 1
	streamCatalog
	streamWarm
	streamOpen
	streamClosed
	streamMiss
	streamProbe
)

func rng(seed, stream uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, stream)) }

// kindSpan names the span of one Spec.Run by derivation kind; the
// per-kind layer metric is the span name with "_s" appended.
var kindSpan = map[shard.Kind]string{
	shard.KindBound:        "bound.run",
	shard.KindMultiLevel:   "multilevel.run",
	shard.KindFusionTiled:  "fusion.tiled_run",
	shard.KindSegmentation: "fusion.segmentation_run",
}

func runDeriveConv(ctx context.Context, o Options) (*Result, error) {
	return runDerive(ctx, o, "derive-conv", cheapOnly(deriveConvSpecs(), o.Short), "derive-conv/conv-R3S3")
}

func runDeriveMixed(ctx context.Context, o Options) (*Result, error) {
	return runDerive(ctx, o, "derive-mixed", cheapOnly(deriveMixedSpecs(), o.Short), "derive-mixed/gemm4k-imperfect48")
}

// runDerive measures in-process passes of workload.Spec.Run over specs,
// in an order the seed shuffles per pass, each run paired with a CPU
// reference. Set-up loads the golden table and derives the warm spec; every
// derived curve is checked against the golden table.
func runDerive(ctx context.Context, o Options, name string, specs []namedSpec, warmID string) (*Result, error) {
	r := newResult(name)
	h := o.timer(RefCPU)
	var golden Golden
	var setups []op
	for k := 0; k < setupRepeats; k++ {
		var err error
		d, rerr := h.timeAfter(setupRefs, func() {
			var g Golden
			var warm namedSpec
			var res *workload.Result
			if g, err = LoadGolden(); err != nil {
				return
			}
			if warm, err = specByID(warmID); err != nil {
				return
			}
			if res, err = warm.Spec.Run(ctx, workload.Exec{}); err != nil {
				return
			}
			r.check(g.Check(warm.ID, res.Curve))
			golden = g
		})
		if err = errors.Join(rerr, err); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	r.setSetup(setups)

	order := rng(o.Seed, streamOrder)
	curves := make([]*pareto.Curve, len(specs))
	t := &tally{}
	var traced []float64
	var evaluated int64
	perKind := map[string]time.Duration{}
	m0 := readMeter()
	start := time.Now()
	for i := 0; i < o.minPasses() || time.Since(start) < o.Duration; i++ {
		tr := o.traced(i)
		pass := tr.ID()
		pt := time.Now()
		for _, j := range order.Perm(len(specs)) {
			s := specs[j]
			var res *workload.Result
			var err error
			var begin time.Time
			d, rerr := h.time(func() {
				begin = time.Now()
				res, err = s.Spec.Run(ctx, workload.Exec{})
			})
			switch {
			case rerr != nil:
				return nil, rerr
			case err != nil:
				r.check(false)
				continue
			case !golden.Check(s.ID, res.Curve):
				r.mismatch()
				continue
			}
			r.check(true)
			t.add(d, s.ID)
			curves[j] = res.Curve
			evaluated += res.Evaluated
			if tr != nil {
				name := kindSpan[s.Spec.Kind]
				tr.Add(0, pass, name, s.ID, begin, begin.Add(d.wall))
				perKind[name] += d.wall
			}
		}
		scaled, _ := t.endPass(tr != nil)
		if tr != nil {
			tr.Add(pass, 0, "pass", name, pt, time.Now())
			traced = append(traced, scaled)
		}
	}
	passes := len(t.passScaled) + len(traced)
	r.runtimeLayers(m0, readMeter(), passes)
	r.setTimes(t)
	r.Layers["workload.evaluated_per_pass"] = float64(evaluated) / float64(passes)
	if o.Tracer == nil {
		r.finish(false)
		return r, nil
	}
	r.traceOverhead(t.passScaled, traced)
	for span, d := range perKind {
		r.Layers[span+"_s"] = d.Seconds() / float64(len(traced))
	}
	plain := make([]*workload.Spec, len(specs))
	for i, s := range specs {
		plain[i] = s.Spec
	}
	if err := probeLayers(ctx, o, r, plain, curves, filepath.Join(o.Dir, "store-probe")); err != nil {
		return nil, err
	}
	r.finish(true)
	return r, nil
}
