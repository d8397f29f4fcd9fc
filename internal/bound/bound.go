// Package bound implements the Orojenesis flow of Fig. 5: traverse the
// complete Snowcat mapspace of a workload, evaluate every mapping's buffer
// size requirement and backing-store access count, and keep the Pareto
// frontier — the ski-slope curve that no mapping of the algorithm can beat.
//
// The traversal walks tilings, not mappings. Every outer-loop order of a
// tiling has the same buffer size, so only its cheapest order can reach
// the frontier; snowcat.Evaluator.MinCompact finds that order exactly by
// subset DP, and the frontier receives one point per tiling. The curve is
// byte-identical to scoring every order.
package bound

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/snowcat"
	"repro/internal/traverse"
)

// Stats reports the cost of a bound derivation, used by the Table I
// runtime comparison and the cmd tools' -stats output.
type Stats struct {
	// MappingsEvaluated counts the mappings the traversal represents,
	// not the evaluations it ran: each tiling is scored once, by the
	// exact minimum over its outer-loop orders, and counts as active!
	// mappings (active = ranks with an outer bound above 1). It is the
	// size of the mapspace covered, as Enum.Visit would enumerate it.
	MappingsEvaluated int64
	Elapsed           time.Duration

	// Workers is the number of evaluation goroutines the traversal
	// actually launched (never more than the number of work items).
	Workers int
}

// MappingsPerSec returns the traversal throughput.
func (s Stats) MappingsPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.MappingsEvaluated) / s.Elapsed.Seconds()
}

// Result bundles the derived ski-slope curve with traversal statistics.
type Result struct {
	Curve *pareto.Curve
	Stats Stats
}

// Options tunes the traversal.
type Options struct {
	// Workers sets the number of parallel evaluation goroutines.
	// Zero means GOMAXPROCS; negative values are rejected by Validate.
	Workers int

	// ImperfectExtra, when positive, widens the mapspace with imperfect
	// factorizations: that many geometrically spaced non-divisor inner
	// tile sizes are added per rank (the Ruby smoothing extension cited
	// by the paper). The resulting curve dominates the perfect-factor
	// curve and has many more breakpoints.
	ImperfectExtra int

	// ChargeSpills switches to physical partial-sum accounting: spilled
	// output partials are charged a reload in addition to the write. The
	// default (false) matches the paper's one-count-per-transfer model.
	// Not supported together with ImperfectExtra.
	ChargeSpills bool
}

// Validate reports option conflicts: negative Workers or ImperfectExtra,
// and the unsupported ChargeSpills + ImperfectExtra combination (the
// imperfect evaluator's rational tile extents have no exact spill
// accounting, so silently ignoring one of the two would mislead).
func (o Options) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("bound: Options.Workers = %d, want >= 0 (0 means GOMAXPROCS)", o.Workers)
	}
	if o.ImperfectExtra < 0 {
		return fmt.Errorf("bound: Options.ImperfectExtra = %d, want >= 0", o.ImperfectExtra)
	}
	if o.ChargeSpills && o.ImperfectExtra > 0 {
		return fmt.Errorf("bound: Options.ChargeSpills is not supported together with ImperfectExtra")
	}
	return nil
}

// Canonical renders the result-affecting options as a stable string — the
// input to the shard manifest's options digest. Workers is deliberately
// excluded: the curve is byte-identical for every worker count, so shards
// run with different parallelism must still merge.
func (o Options) Canonical() string {
	return fmt.Sprintf("bound{imperfect_extra=%d charge_spills=%t}", o.ImperfectExtra, o.ChargeSpills)
}

// newEnum builds the mapspace enumeration selected by opts.
func newEnum(e *einsum.Einsum, opts Options) *mapping.Enum {
	if opts.ImperfectExtra > 0 {
		return mapping.NewImperfectEnum(e, opts.ImperfectExtra)
	}
	return mapping.NewEnum(e)
}

// Space returns the size of the flat tiling index space Derive traverses
// for e under opts — the [0, Space) range that DeriveRange slices and a
// cross-process shard plan (internal/shard) divides. Invalid Options and
// a space that overflows int64 are errors.
func Space(e *einsum.Einsum, opts Options) (int64, error) {
	if err := opts.Validate(); err != nil {
		return 0, err
	}
	return newEnum(e, opts).Size()
}

// Derive runs the Orojenesis flow for a single Einsum and returns its
// ski-slope curve annotated with the workload's algorithmic minimum.
//
// The traversal is distributed over Options.Workers goroutines by chunking
// the flat tiling index space (see internal/traverse), so utilization
// scales with cores regardless of the factor structure of any rank, and
// the curve is byte-identical for every worker count. Derive panics on
// invalid Options or an overflowing space; callers with an error path
// should size the space with Space first.
func Derive(e *einsum.Einsum, opts Options) Result {
	space, err := Space(e, opts)
	if err != nil {
		panic(err.Error())
	}
	r, err := DeriveRange(context.Background(), e, opts, 0, space)
	if err != nil {
		// DeriveRange fails only on context cancellation (impossible under
		// the background context) or a recovered evaluator panic
		// (traverse.PanicError); re-panicking the latter preserves Derive's
		// historical crash-on-bug behavior for direct callers, while error-
		// path callers (the serve package) use DeriveRange and contain it.
		panic(err.Error())
	}
	return r
}

// DeriveRange derives the partial ski-slope frontier over the global
// tiling indices [lo, hi) of e's mapspace under opts — one shard's (or one
// checkpoint block's) share of the full traversal. Deriving a disjoint
// cover of [0, Space(e, opts)) and merging the partial curves with
// pareto.Union reproduces Derive's curve byte-for-byte; the annotations
// are already set on every partial, since they depend only on the
// workload. Panics on invalid Options or an out-of-bounds range.
//
// Cancelling ctx aborts the traversal within about one worker chunk and
// returns the context's error with no curve — the cancellation path a
// scheduled shard run (internal/fleet) relies on to stop inside a
// checkpoint block rather than after it.
func DeriveRange(ctx context.Context, e *einsum.Einsum, opts Options, lo, hi int64) (Result, error) {
	if err := opts.Validate(); err != nil {
		panic(err.Error())
	}
	start := time.Now()

	en := newEnum(e, opts)
	if lo < 0 || hi < lo || hi > en.Tilings() {
		panic(fmt.Sprintf("bound: DeriveRange [%d, %d) outside [0, %d)", lo, hi, en.Tilings()))
	}

	acct := snowcat.Perfect
	switch {
	case opts.ImperfectExtra > 0:
		acct = snowcat.Imperfect
	case opts.ChargeSpills:
		acct = snowcat.SpillCharged
	}
	curve, ts, err := traverse.FrontierRange(ctx, lo, hi, opts.Workers, func() traverse.ChunkFunc {
		ev := snowcat.NewEvaluator(e)
		return func(lo, hi int64, b *pareto.Builder) int64 {
			var count int64
			en.VisitTilings(lo, hi, func(splits []shape.Split) {
				b.Add(ev.MinCompact(acct, splits))
				count += mapping.Orders(splits)
			})
			return count
		}
	})
	if err != nil {
		return Result{}, err
	}

	curve.AlgoMinBytes = e.AlgorithmicMinBytes()
	curve.TotalOperandBytes = e.TotalOperandBytes()
	return Result{
		Curve: curve,
		Stats: Stats{
			MappingsEvaluated: ts.Evaluated,
			Elapsed:           time.Since(start),
			Workers:           ts.Workers,
		},
	}, nil
}

// LevelBound is one probe of the ski-slope curve for a level of a memory
// hierarchy (Fig. 7): with CapacityBytes of aggregate storage at a level,
// traffic to the next-outer level is bounded below by AccessBytes.
type LevelBound struct {
	Level         string
	CapacityBytes int64
	AccessBytes   int64
	Feasible      bool
}

// ProbeLevels reads the curve at each level's capacity, yielding the
// multi-level data movement bounds of Fig. 7. Per Sec. III-B the composed
// multi-level bound is valid but not guaranteed tight. Results are sorted
// by ascending capacity, then by level name, so repeated runs print
// identically regardless of map iteration order.
func ProbeLevels(c *pareto.Curve, levels map[string]int64) []LevelBound {
	out := make([]LevelBound, 0, len(levels))
	for name, capacity := range levels {
		acc, ok := c.AccessesAt(capacity)
		out = append(out, LevelBound{
			Level:         name,
			CapacityBytes: capacity,
			AccessBytes:   acc,
			Feasible:      ok,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CapacityBytes != out[j].CapacityBytes {
			return out[i].CapacityBytes < out[j].CapacityBytes
		}
		return out[i].Level < out[j].Level
	})
	return out
}

// GEMMPeakOI is the perfect-reuse peak operational intensity of a GEMM in
// MACs per element: MKN / (MK + KN + MN). Sec. IV-1 shows it converges to
// the smallest dimension for oblong shapes.
func GEMMPeakOI(m, k, n int64) float64 {
	return float64(m*k*n) / float64(m*k+k*n+m*n)
}
