// Package oi builds the paper's derivative models on top of ski-slope
// curves: the attainable operational-intensity mesa (Fig. 8), a classic
// roofline, and the buffer-vs-MAC area provisioning model that yields the
// concave "performance mesa" of Figs. 9 and 23 (Sec. VII-D).
package oi

import (
	"math"

	"repro/internal/pareto"
)

// MesaPoint is one point of an OI mesa: the best attainable operational
// intensity (MACs per element of backing-store traffic) at a buffer size.
type MesaPoint struct {
	BufferBytes int64
	OI          float64
}

// Mesa derives the attainable-OI curve from a ski-slope curve. macs is the
// workload's total multiply-accumulate count and elementSize the operand
// width in bytes. The result is monotonically non-decreasing in buffer
// size and flat-tops at the peak OI (the mesa).
func Mesa(c *pareto.Curve, macs int64, elementSize int64) []MesaPoint {
	pts := c.Points()
	out := make([]MesaPoint, len(pts))
	for i, p := range pts {
		elems := float64(p.AccessBytes) / float64(elementSize)
		out[i] = MesaPoint{BufferBytes: p.BufferBytes, OI: float64(macs) / elems}
	}
	return out
}

// PeakOI returns the mesa's flat top: the OI attainable with the maximal
// effectual buffer.
func PeakOI(c *pareto.Curve, macs int64, elementSize int64) float64 {
	if c.Empty() {
		return 0
	}
	elems := float64(c.MinAccessBytes()) / float64(elementSize)
	return float64(macs) / elems
}

// OIAt returns the attainable OI at a given capacity; ok is false when no
// mapping fits.
func OIAt(c *pareto.Curve, macs, elementSize, bufferBytes int64) (float64, bool) {
	acc, ok := c.AccessesAt(bufferBytes)
	if !ok {
		return 0, false
	}
	return float64(macs) / (float64(acc) / float64(elementSize)), true
}

// ChipSpec describes the fixed chip envelope of the Sec. VII-D provisioning
// study. Areas are in µm², die area in mm².
type ChipSpec struct {
	DieAreaMM2     float64
	IOFraction     float64 // fraction of die reserved for IO
	AreaPerMACUM2  float64
	AreaPerByteUM2 float64
	FrequencyHz    float64
	DRAMBandwidth  float64 // bytes/s
}

// GF100 returns the paper's baseline chip: a GF100-like 40 nm die of
// 529 mm² at 700 MHz with 149 GB/s DRAM bandwidth; 332.25 µm² per MAC and
// 2.59 µm² per byte of SRAM (Accelergy-derived constants); 20% of the die
// is IO.
func GF100() ChipSpec {
	return ChipSpec{
		DieAreaMM2:     529,
		IOFraction:     0.20,
		AreaPerMACUM2:  332.25,
		AreaPerByteUM2: 2.59,
		FrequencyHz:    700e6,
		DRAMBandwidth:  149e9,
	}
}

// UsableAreaUM2 is the die area available for SRAM and MACs.
func (s ChipSpec) UsableAreaUM2() float64 {
	return s.DieAreaMM2 * 1e6 * (1 - s.IOFraction)
}

// BufferBytesAt returns the buffer capacity bought by devoting ratio of
// the usable area to SRAM.
func (s ChipSpec) BufferBytesAt(ratio float64) int64 {
	return int64(ratio * s.UsableAreaUM2() / s.AreaPerByteUM2)
}

// MACsAt returns the MAC count bought by the remaining area.
func (s ChipSpec) MACsAt(ratio float64) int64 {
	return int64((1 - ratio) * s.UsableAreaUM2() / s.AreaPerMACUM2)
}

// PerfPoint is one sample of the performance mesa.
type PerfPoint struct {
	BufferAreaRatio float64
	BufferBytes     int64
	MACUnits        int64
	ComputeMACs     float64 // compute-limited throughput, MACs/s
	MemoryMACs      float64 // memory-limited throughput, MACs/s
	Achieved        float64 // min of the two
	Feasible        bool    // false when no mapping fits in the buffer
}

// PerformanceMesa sweeps the buffer-to-total-area ratio and evaluates
// compute-limited and memory-limited throughput for a workload whose
// ski-slope curve is c and whose total work is macs MACs.
//
//	memory-limited MACs/s = macs / (Orojenesis(bufferBytes) / bandwidth)
//	compute-limited MACs/s = MAC units x frequency
func PerformanceMesa(c *pareto.Curve, macs int64, spec ChipSpec, ratios []float64) []PerfPoint {
	out := make([]PerfPoint, 0, len(ratios))
	for _, r := range ratios {
		p := PerfPoint{
			BufferAreaRatio: r,
			BufferBytes:     spec.BufferBytesAt(r),
			MACUnits:        spec.MACsAt(r),
		}
		p.ComputeMACs = float64(p.MACUnits) * spec.FrequencyHz
		if acc, ok := c.AccessesAt(p.BufferBytes); ok && acc > 0 {
			p.MemoryMACs = float64(macs) * spec.DRAMBandwidth / float64(acc)
			p.Achieved = math.Min(p.ComputeMACs, p.MemoryMACs)
			p.Feasible = true
		}
		out = append(out, p)
	}
	return out
}

// OptimalRatio returns the mesa sample with the highest achieved
// throughput. ok is false when no sample was feasible.
func OptimalRatio(mesa []PerfPoint) (PerfPoint, bool) {
	best := PerfPoint{}
	found := false
	for _, p := range mesa {
		if p.Feasible && (!found || p.Achieved > best.Achieved) {
			best = p
			found = true
		}
	}
	return best, found
}

// Ratios returns n+1 evenly spaced area ratios spanning [lo, hi].
func Ratios(lo, hi float64, n int) []float64 {
	if n < 1 {
		return []float64{lo}
	}
	out := make([]float64, n+1)
	for i := 0; i <= n; i++ {
		out[i] = lo + (hi-lo)*float64(i)/float64(n)
	}
	return out
}
