package fusion

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/pareto"
	"repro/internal/traverse"
)

// Segmentation describes one way to cut a chain into consecutively
// executed segments: Cuts[i] is the first op index of segment i+1.
type Segmentation struct {
	Cuts []int
}

// Segments returns the [lo, hi) op spans for a chain of n ops.
func (s Segmentation) Segments(n int) [][2]int {
	var out [][2]int
	lo := 0
	for _, c := range s.Cuts {
		out = append(out, [2]int{lo, c})
		lo = c
	}
	out = append(out, [2]int{lo, n})
	return out
}

// render labels the segmentation of an n-op chain, e.g. "[0:2)[2:6)".
func (s Segmentation) render(n int) string {
	str := ""
	for _, seg := range s.Segments(n) {
		str += fmt.Sprintf("[%d:%d)", seg[0], seg[1])
	}
	return str
}

// SegmentationAt decodes flat index mask into the cut pattern it names for
// an n-op chain: bit b of mask set means a cut before op b+1. The mask
// space [0, 2^(n-1)) enumerates every segmentation of Sec. VII-B without
// materializing them, so range-restricted sweeps (shards, checkpoint
// blocks) address segmentations directly. mask 0 is the fully fused chain.
func SegmentationAt(n int, mask int64) Segmentation {
	var cuts []int
	for b := 0; b < n-1; b++ {
		if mask&(1<<b) != 0 {
			cuts = append(cuts, b+1)
		}
	}
	return Segmentation{Cuts: cuts}
}

// SegmentationSpace returns the size of the segmentation index space of c —
// the [0, Space) mask range that SegmentationSweep.Range slices and a
// cross-process shard plan (internal/shard) divides: 2^(n-1) for n ops.
func SegmentationSpace(c *Chain) (int64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	n := len(c.Ops)
	if n > 63 {
		return 0, fmt.Errorf("fusion: segmentation space of %d-op chain %s overflows int64", n, c.Name)
	}
	return int64(1) << (n - 1), nil
}

// SegmentedResult reports the curve of one segmentation strategy.
type SegmentedResult struct {
	Segmentation Segmentation
	Label        string
	Curve        *pareto.Curve
}

// segSpan is a [lo, hi) op span of the chain, the memo key for fused
// sub-chain curves.
type segSpan struct{ lo, hi int }

// SegmentationSweep evaluates mask-indexed segmentations of a chain. The
// curve of a segmentation is the capacity-wise sum of its segments'
// curves: single-op segments use the per-op standalone curves, multi-op
// segments the tiled-fusion bound of the sub-chain. Fused sub-chain curves
// are shared through a concurrency-safe memo so each [lo, hi) span is
// derived exactly once per sweep no matter which workers (or which
// checkpoint blocks of a resumable shard run) need it. The memo is
// derived state, never checkpointed: a resumed shard recomputes the spans
// its remaining masks touch (see docs/shard-format.md).
type SegmentationSweep struct {
	c     *Chain
	perOp []*pareto.Curve
	space int64
	fused traverse.Memo[segSpan, *pareto.Curve]
}

// NewSegmentationSweep validates the chain and its per-op curves and
// returns a sweep over the [0, SegmentationSpace(c)) segmentation masks.
func NewSegmentationSweep(c *Chain, perOp []*pareto.Curve) (*SegmentationSweep, error) {
	space, err := SegmentationSpace(c)
	if err != nil {
		return nil, err
	}
	if len(perOp) != len(c.Ops) {
		return nil, fmt.Errorf("fusion: segmentation sweep: %d per-op curves for %d ops",
			len(perOp), len(c.Ops))
	}
	return &SegmentationSweep{c: c, perOp: perOp, space: space}, nil
}

// fusedFor memoizes the tiled-fusion curve of the [lo, hi) sub-chain.
// Sub-chain sweeps stay serial: the outer sweep already saturates the
// workers, and nested fan-out would oversubscribe. A compute cancelled by
// ctx re-arms the memo entry (see traverse.Memo), so a resumed or retried
// caller derives the span afresh instead of inheriting the stale error.
func (sw *SegmentationSweep) fusedFor(ctx context.Context, lo, hi int) (*pareto.Curve, error) {
	return sw.fused.Do(segSpan{lo, hi}, func() (*pareto.Curve, error) {
		sub := sw.c.Sub(lo, hi)
		space, err := TiledFusionSpace(sub)
		if err != nil {
			return nil, err
		}
		cv, _, err := TiledFusionRange(ctx, sub, 0, space, 1)
		return cv, err
	})
}

// curveAt derives the curve of segmentation mask.
func (sw *SegmentationSweep) curveAt(ctx context.Context, mask int64) (Segmentation, *pareto.Curve, error) {
	n := len(sw.c.Ops)
	seg := SegmentationAt(n, mask)
	parts := make([]*pareto.Curve, 0, len(seg.Cuts)+1)
	for _, sp := range seg.Segments(n) {
		if sp[1]-sp[0] == 1 {
			parts = append(parts, sw.perOp[sp[0]])
			continue
		}
		cv, err := sw.fusedFor(ctx, sp[0], sp[1])
		if err != nil {
			return seg, nil, err
		}
		parts = append(parts, cv)
	}
	return seg, pareto.Sum(parts...), nil
}

// Range derives the capacity-wise best curve over the segmentation masks
// [lo, hi) — one shard's (or one checkpoint block's) share of the study.
// Deriving a disjoint cover of [0, SegmentationSpace) and merging the
// partial curves with pareto.Union gives the byte-identical whole-space
// curve, which is also pareto.MergeMin over SegmentationStudyContext's
// curves; the annotations are already set on every partial.
//
// Cancelling ctx aborts the sweep within about one worker chunk and
// returns the context's error with no curve.
func (sw *SegmentationSweep) Range(ctx context.Context, lo, hi int64, workers int) (*pareto.Curve, traverse.Stats, error) {
	if lo < 0 || hi < lo || hi > sw.space {
		return nil, traverse.Stats{}, fmt.Errorf("fusion: segmentation range [%d, %d) outside [0, %d)", lo, hi, sw.space)
	}
	// FrontierRange chunk funcs cannot return errors, so a failed
	// sub-chain derivation is recorded out-of-band; without this check a
	// failed chunk would silently under-approximate the frontier.
	var mu sync.Mutex
	var firstErr error
	curve, ts, err := traverse.FrontierRange(ctx, lo, hi, workers, func() traverse.ChunkFunc {
		return func(clo, chi int64, b *pareto.Builder) int64 {
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed {
				return 0
			}
			var count int64
			for mask := clo; mask < chi; mask++ {
				_, cv, err := sw.curveAt(ctx, mask)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return count
				}
				for _, p := range cv.Points() {
					b.Add(p.BufferBytes, p.AccessBytes)
				}
				count++
			}
			return count
		}
	})
	if err != nil {
		return nil, ts, err
	}
	mu.Lock()
	ferr := firstErr
	mu.Unlock()
	if ferr != nil {
		return nil, ts, ferr
	}
	curve.AlgoMinBytes = sw.c.FusedAlgoMinBytes()
	curve.TotalOperandBytes = sw.c.UnfusedAlgoMinBytes()
	return curve, ts, nil
}

// SegmentationStudyContext derives the bound of every segmentation of
// the chain under ctx. perOp supplies each op's standalone ski-slope
// curve, used for single-op segments, which execute unfused; multi-op
// segments use the tiled-fusion bound, and a segmentation's curve is the
// capacity-wise sum of its segments' curves. The 2^(n-1) segmentations
// are distributed across workers (<= 0 means GOMAXPROCS); fused
// sub-chain curves are shared through a concurrency-safe memo so each
// [lo, hi) span is derived exactly once no matter which workers need it.
// Results are written by segmentation index, so the output order (and
// every curve in it) is identical to a serial run. Cancelling ctx stops
// the study within about one chunk per worker and returns the context's
// error with no results.
func SegmentationStudyContext(ctx context.Context, c *Chain, perOp []*pareto.Curve, workers int) ([]SegmentedResult, traverse.Stats, error) {
	sw, err := NewSegmentationSweep(c, perOp)
	if err != nil {
		return nil, traverse.Stats{}, err
	}
	out := make([]SegmentedResult, sw.space)
	errs := make([]error, sw.space)
	ts, terr := traverse.Each(ctx, sw.space, workers, func(i int64) {
		seg, cv, derr := sw.curveAt(ctx, i)
		if derr != nil {
			errs[i] = derr
			return
		}
		out[i] = SegmentedResult{
			Segmentation: seg,
			Label:        seg.render(len(c.Ops)),
			Curve:        cv,
		}
	})
	if terr != nil {
		return nil, ts, terr
	}
	for _, err := range errs {
		if err != nil {
			return nil, ts, err
		}
	}
	return out, ts, nil
}
