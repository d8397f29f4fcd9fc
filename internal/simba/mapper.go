package simba

import (
	"context"
	"time"

	"repro/internal/shape"
	"repro/internal/traverse"
)

// Options tunes the mapspace traversal.
type Options struct {
	// Workers sets the number of parallel evaluation goroutines; zero
	// (or negative) means GOMAXPROCS. Search results, samples, and
	// evaluation counts are identical for every worker count.
	Workers int
}

// dramOrders is the set of DRAM-level loop orders the mapper explores.
var dramOrders = [][3]string{
	{"M", "K", "N"}, {"M", "N", "K"},
	{"K", "M", "N"}, {"K", "N", "M"},
	{"N", "M", "K"}, {"N", "K", "M"},
}

// space is the index-addressable form of the Simba mapspace, built for the
// shared traversal engine (internal/traverse): the outer factor choices
// (m0, k0, n0, spatial) form a flat mixed-radix index space that the
// engine chunks across workers, while the Global-Buffer factors and loop
// orders are expanded inside each chunk with the capacity-based break
// pruning intact (footprints are monotone in every ascending divisor, so
// a break abandons only infeasible suffixes).
type space struct {
	g                  GEMM
	a                  Arch
	m0s, k0s, n0s, sps []int64
}

func newSpace(g GEMM, a Arch) *space {
	sps := []int64{1}
	for _, s := range shape.Divisors(g.M) {
		if s > 1 && s <= a.PEs {
			sps = append(sps, s)
		}
	}
	return &space{
		g: g, a: a,
		m0s: shape.Divisors(g.M),
		k0s: shape.Divisors(g.K),
		n0s: shape.Divisors(g.N),
		sps: sps,
	}
}

// combos returns the number of outer-factor index combinations.
func (s *space) combos() int64 {
	return int64(len(s.m0s)) * int64(len(s.k0s)) * int64(len(s.n0s)) * int64(len(s.sps))
}

// visit walks the combinations with flat index in [lo, hi) in serial
// enumeration order, calling fn for every legal mapping along with its
// position — the combination index and the mapping's ordinal within the
// combination — and returns the number of mappings evaluated. The nested
// enumerator pruned infeasible outer choices with break; because divisors
// ascend and footprints are monotone, skipping each infeasible
// combination by the same capacity checks evaluates exactly the same set
// of mappings, so MappingsEvaluated counts stay exact under any
// partitioning. The Mapping value is reused across calls.
func (s *space) visit(lo, hi int64, fn func(m *Mapping, combo int64, ord int)) int64 {
	g, a, es := s.g, s.a, s.a.ElementSize
	var m Mapping
	var count int64
	for combo := lo; combo < hi; combo++ {
		// Decode: m0 varies slowest, spatial fastest — the nesting order
		// of the serial enumeration.
		rem := combo
		sp := s.sps[rem%int64(len(s.sps))]
		rem /= int64(len(s.sps))
		n0 := s.n0s[rem%int64(len(s.n0s))]
		rem /= int64(len(s.n0s))
		k0 := s.k0s[rem%int64(len(s.k0s))]
		m0 := s.m0s[rem/int64(len(s.k0s))]

		if (m0*k0)*es > a.RFBytes {
			continue
		}
		if (m0*k0+k0*n0+m0*n0)*es > a.RFBytes {
			continue
		}
		if g.M%(m0*sp) != 0 {
			continue
		}
		ord := 0
		for _, m1 := range shape.Divisors(g.M / (m0 * sp)) {
			tm := m0 * m1 * sp
			if (tm*k0)*es > a.GBBytes {
				break // m1 ascending; larger only grows the footprint
			}
			for _, k1 := range shape.Divisors(g.K / k0) {
				tk := k0 * k1
				if (tm*tk)*es > a.GBBytes {
					break
				}
				for _, n1 := range shape.Divisors(g.N / n0) {
					tn := n0 * n1
					if (tm*tk+tk*tn+tm*tn)*es > a.GBBytes {
						break
					}
					m = Mapping{
						M0: m0, K0: k0, N0: n0,
						M1: m1, K1: k1, N1: n1,
						Spatial: sp,
						M2:      g.M / (m0 * m1 * sp),
						K2:      g.K / (k0 * k1),
						N2:      g.N / (n0 * n1),
					}
					for _, ordDRAM := range dramOrders {
						m.OrderDRAM = ordDRAM
						fn(&m, combo, ord)
						ord++
						count++
					}
				}
			}
		}
	}
	return count
}

// Mapspace enumerates every legal mapping of g on a in serial enumeration
// order, with capacity-based pruning. The Mapping value is reused across
// visits.
func Mapspace(g GEMM, a Arch, visit func(*Mapping)) {
	s := newSpace(g, a)
	s.visit(0, s.combos(), func(m *Mapping, _ int64, _ int) { visit(m) })
}

// position orders mappings by their place in the serial enumeration.
type position struct {
	combo int64
	ord   int
}

func (p position) before(q position) bool {
	return p.combo < q.combo || (p.combo == q.combo && p.ord < q.ord)
}

// DSEResult reports one architecture configuration's best mapping and the
// search cost.
type DSEResult struct {
	Arch              Arch
	BestDRAMBytes     int64
	BestGBBytesUsed   int64
	MappingsEvaluated int64
	Elapsed           time.Duration

	// Workers is the number of evaluation goroutines the traversal
	// actually launched.
	Workers int
}

// MappingsPerSec returns the search throughput.
func (r DSEResult) MappingsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.MappingsEvaluated) / r.Elapsed.Seconds()
}

// SearchBest exhaustively maps g onto a and returns the mapping with the
// fewest DRAM accesses. The traversal is distributed over Options.Workers
// goroutines; per-worker bests carry their enumeration position, and ties
// on DRAM accesses resolve to the earliest position, so the result is
// identical to the serial search for every worker count.
func SearchBest(g GEMM, a Arch, opts Options) DSEResult {
	start := time.Now()
	s := newSpace(g, a)
	items := s.combos()

	type best struct {
		found    bool
		dram, gb int64
		pos      position
	}
	w := traverse.WorkerCount(items, opts.Workers)
	bests := make([]best, w)
	stats, _ := traverse.Partition(context.Background(), items, w, func(wi int) traverse.RangeFunc {
		bi := &bests[wi]
		return func(lo, hi int64) int64 {
			return s.visit(lo, hi, func(m *Mapping, combo int64, ord int) {
				r := Evaluate(g, a, m)
				p := position{combo, ord}
				if !bi.found || r.DRAMAccessBytes < bi.dram ||
					(r.DRAMAccessBytes == bi.dram && p.before(bi.pos)) {
					*bi = best{true, r.DRAMAccessBytes, r.GBBytesUsed, p}
				}
			})
		}
	})

	res := DSEResult{
		Arch:              a,
		BestDRAMBytes:     -1,
		MappingsEvaluated: stats.Evaluated,
		Workers:           stats.Workers,
	}
	var bb best
	for _, bi := range bests {
		if !bi.found {
			continue
		}
		if !bb.found || bi.dram < bb.dram || (bi.dram == bb.dram && bi.pos.before(bb.pos)) {
			bb = bi
		}
	}
	if bb.found {
		res.BestDRAMBytes = bb.dram
		res.BestGBBytesUsed = bb.gb
	}
	res.Elapsed = time.Since(start)
	return res
}

// DSE runs SearchBest across many Global-Buffer capacities, reproducing
// the 100-design sweep of Table I. Each design's search runs on the
// shared traversal engine with Options.Workers goroutines.
func DSE(g GEMM, gbSizes []int64, opts Options) []DSEResult {
	out := make([]DSEResult, 0, len(gbSizes))
	for _, gb := range gbSizes {
		out = append(out, SearchBest(g, Default(gb), opts))
	}
	return out
}
