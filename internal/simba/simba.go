// Package simba implements a simplified three-level spatial-accelerator
// analytical model in the spirit of the paper's Simba validation target
// (Fig. 24b/c, Table I): an array of PEs with private register files, a
// shared Global Buffer, and DRAM. It substitutes for the authors'
// Timeloop-Simba model. Every legal Simba mapping corresponds to a
// Snowcat mapping whose buffer is the Global-Buffer footprint, so measured
// DRAM accesses are guaranteed to sit on or above the Orojenesis bound —
// the property the validation experiment demonstrates — while the model's
// extra level and constraints make per-mapping evaluation strictly more
// expensive, reproducing the Table I runtime-comparison shape.
package simba

import (
	"fmt"

	"repro/internal/nest"
)

// Arch describes one Simba-like configuration.
type Arch struct {
	Name        string
	PEs         int64 // spatial parallelism across the M dimension
	RFBytes     int64 // per-PE register file capacity
	GBBytes     int64 // shared Global Buffer capacity
	ElementSize int64
}

// Default returns the baseline configuration used in the validation runs:
// 16 PEs with 512 B register files.
func Default(gbBytes int64) Arch {
	return Arch{
		Name:        fmt.Sprintf("simba-gb%d", gbBytes),
		PEs:         16,
		RFBytes:     512,
		GBBytes:     gbBytes,
		ElementSize: 2,
	}
}

// GEMM is the workload shape the Simba model maps.
type GEMM struct {
	M, K, N int64
}

// Mapping is one point in the three-level mapspace: each rank is split
// into an RF tile (L0), a Global-Buffer temporal factor (L1) and a DRAM
// loop bound (L2); the M rank is additionally partitioned across PEs by
// Spatial. OrderDRAM gives the DRAM-level loop nest outermost first.
type Mapping struct {
	M0, K0, N0 int64 // RF tiles
	M1, K1, N1 int64 // GB temporal factors
	Spatial    int64 // spatial partitioning of M across PEs (at GB level)
	M2, K2, N2 int64 // DRAM loop bounds
	OrderDRAM  [3]string
}

// Result is the model's evaluation of one mapping.
type Result struct {
	RFBytesUsed     int64
	GBBytesUsed     int64
	DRAMAccessBytes int64
	GBAccessBytes   int64
}

// gbTiles returns the Global-Buffer tile sizes (the live footprint across
// all PEs).
func (m *Mapping) gbTiles() (tm, tk, tn int64) {
	return m.M0 * m.M1 * m.Spatial, m.K0 * m.K1, m.N0 * m.N1
}

// tensorNames are the GEMM operands in evaluation order.
var tensorNames = [3]string{"A", "W", "B"}

// relevance of the GEMM operands to each rank.
var relevant = map[string]map[string]bool{
	"A": {"M": true, "K": true, "N": false},
	"W": {"M": false, "K": true, "N": true},
	"B": {"M": true, "K": false, "N": true},
}

// dramBound returns the DRAM-level loop bound of a rank.
func (m *Mapping) dramBound(r string) int64 {
	switch r {
	case "M":
		return m.M2
	case "K":
		return m.K2
	default:
		return m.N2
	}
}

// gbBound returns the combined GB-temporal and DRAM loop bound of a rank —
// the trip count an RF tile sees at the Global-Buffer boundary.
func (m *Mapping) gbBound(r string) int64 {
	switch r {
	case "M":
		return m.M1 * m.M2
	case "K":
		return m.K1 * m.K2
	default:
		return m.N1 * m.N2
	}
}

// Evaluate runs the analytical model. The mapping must be valid. Transfer
// counts at both boundaries instantiate the shared product rule
// (internal/nest) on the mapping's DRAM loop order.
func Evaluate(g GEMM, a Arch, m *Mapping) Result {
	es := a.ElementSize
	tm, tk, tn := m.gbTiles()
	gbFoot := tm*tk + tk*tn + tm*tn
	rfFoot := m.M0*m.K0 + m.K0*m.N0 + m.M0*m.N0

	res := Result{
		RFBytesUsed: rfFoot * es,
		GBBytesUsed: gbFoot * es,
	}

	// DRAM -> GB traffic: GB tiles iterated by the DRAM loop nest.
	var loops [3]nest.Loop
	for i, r := range m.OrderDRAM {
		loops[i] = nest.Loop{Rank: r, Bound: m.dramBound(r)}
	}
	gbTiles := [3]int64{tm * tk, tk * tn, tm * tn} // A, W, B
	for i, tensor := range tensorNames {
		rel := relevant[tensor]
		iters := nest.Iterations(loops[:], func(r string) bool { return rel[r] })
		res.DRAMAccessBytes += gbTiles[i] * iters * es
	}

	// GB -> RF traffic: RF tiles iterated by the GB temporal loops nested
	// inside the DRAM loops. The GB loop order reuses the DRAM order (the
	// model's fixed dataflow). Spatially partitioned tensors (relevant to
	// M) stream per PE; M-irrelevant tensors are broadcast and counted
	// once.
	for i, r := range m.OrderDRAM {
		loops[i] = nest.Loop{Rank: r, Bound: m.gbBound(r)}
	}
	rfTiles := [3]int64{m.M0 * m.K0, m.K0 * m.N0, m.M0 * m.N0} // A, W, B
	for i, tensor := range tensorNames {
		rel := relevant[tensor]
		iters := nest.Iterations(loops[:], func(r string) bool { return rel[r] })
		fanout := int64(1)
		if rel["M"] {
			fanout = m.Spatial
		}
		res.GBAccessBytes += rfTiles[i] * iters * fanout * es
	}
	return res
}
