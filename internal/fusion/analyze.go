package fusion

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bound"
	"repro/internal/pareto"
	"repro/internal/traverse"
)

// ChainStats times the phases of a chain analysis: per-op exhaustive
// derivations, the fused-template sweep, the untiled bound and the
// segmentation sweep. Surfaced by cmd/fusionbounds behind -stats.
type ChainStats struct {
	Workers int // largest worker count any phase actually used
	Phases  []traverse.Phase
}

// Total returns the summed wall time of all phases.
func (s ChainStats) Total() time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		d += p.Elapsed
	}
	return d
}

// TotalEvaluated returns the summed evaluation count of all phases.
func (s ChainStats) TotalEvaluated() int64 {
	var n int64
	for _, p := range s.Phases {
		n += p.Evaluated
	}
	return n
}

// add records one phase and raises the worker high-water mark.
func (s *ChainStats) add(name string, evaluated int64, workers int, elapsed time.Duration) {
	s.Phases = append(s.Phases, traverse.Phase{
		Name: name, Evaluated: evaluated, Workers: workers, Elapsed: elapsed,
	})
	s.Workers = max(s.Workers, workers)
}

// ChainAnalysis is the multi-Einsum report of Sec. V/VI: the unfused
// baseline and the fusion bounds.
type ChainAnalysis struct {
	Chain          *Chain
	PerOp          []*pareto.Curve
	Unfused        *pareto.Curve
	Tiled          *pareto.Curve
	Untiled        *pareto.Curve
	Best           *pareto.Curve // best segmentation at every capacity
	AlgoMin        int64         // fused algorithmic minimum, bytes
	UnfusedAlgoMin int64         // unfused algorithmic minimum, bytes
	Stats          ChainStats
}

// Analyze runs the multi-Einsum Orojenesis flow (Fig. 5) for a fusible
// chain of at least two ops: each op's exhaustive standalone curve, the
// tiled-fusion template sweep, the untiled bound, and the best
// segmentation at every capacity, swept over the whole mask space with
// the same SegmentationSweep.Range that shards run.
func Analyze(c *Chain, opts bound.Options) (*ChainAnalysis, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Len() < 2 {
		return nil, fmt.Errorf("fusion: Analyze needs >= 2 ops, got %d", c.Len())
	}
	var stats ChainStats

	start := time.Now()
	perOp := make([]*pareto.Curve, c.Len())
	var perOpMappings int64
	perOpWorkers := 0
	for e := range c.Ops {
		res := bound.Derive(c.Ops[e].Ref, opts)
		perOp[e] = res.Curve
		perOpMappings += res.Stats.MappingsEvaluated
		perOpWorkers = max(perOpWorkers, res.Stats.Workers)
	}
	stats.add("per-op curves", perOpMappings, perOpWorkers, time.Since(start))

	tiled, ts, err := TiledFusionStats(c, opts.Workers)
	if err != nil {
		return nil, err
	}
	stats.add("tiled-fusion sweep", ts.Evaluated, ts.Workers, ts.Elapsed)

	start = time.Now()
	untiled, err := UntiledFusion(c)
	if err != nil {
		return nil, err
	}
	stats.add("untiled fusion", 1, 1, time.Since(start))

	sw, err := NewSegmentationSweep(c, perOp)
	if err != nil {
		return nil, err
	}
	best, ss, err := sw.Range(context.Background(), 0, sw.space, opts.Workers)
	if err != nil {
		return nil, err
	}
	stats.add("segmentation study", ss.Evaluated, ss.Workers, ss.Elapsed)

	return &ChainAnalysis{
		Chain:          c,
		PerOp:          perOp,
		Unfused:        UnfusedCurve(perOp),
		Tiled:          tiled,
		Untiled:        untiled,
		Best:           best,
		AlgoMin:        c.FusedAlgoMinBytes(),
		UnfusedAlgoMin: c.UnfusedAlgoMinBytes(),
		Stats:          stats,
	}, nil
}

// FusionProfit reports the unfused/fused access ratio at a capacity
// (values below 1 mean fusion is counter-productive there, the regime the
// paper highlights for small buffers).
func (a *ChainAnalysis) FusionProfit(bufBytes int64) (float64, bool) {
	u, ok1 := a.Unfused.AccessesAt(bufBytes)
	f, ok2 := a.Tiled.AccessesAt(bufBytes)
	if !ok1 || !ok2 || f == 0 {
		return 0, false
	}
	return float64(u) / float64(f), true
}
