// Package snowcat implements the analytical data-movement model for the
// paper's Snowcat proxy architecture: a single processing element with one
// unconstrained buffer backed by an infinite backing store (Fig. 4b).
//
// For a given mapping the model reports (1) the buffer size requirement —
// the sum of the live tile footprints of all operands — and (2) the
// backing-store access count per tensor, computed as tile footprint times
// the product of the outer loop bounds from the outermost loop down to the
// innermost loop relevant to that tensor (the rule illustrated in Fig. 6).
//
// The buffer term depends only on the inner tiles, so every outer-loop
// order of a tiling has the same buffer size and only the cheapest order
// matters for the frontier. Evaluator.MinCompact computes that cheapest
// access count exactly, without enumerating orders: under each accounting
// rule (paper, spill-charged, imperfect) a tensor's cost is a function of
// its transfer count, and the count is fixed by the tensor's innermost
// relevant loop r and the set S of loops inside it — P/∏bounds(S), or
// P/∏bounds(S∪{r}) times a grouped factor — so nest.MinOverOrders' subset
// DP over the iterating ranks finds the minimum over all k! orders in
// k·2^(k-1) steps.
//
// Because every rule's cost is also nondecreasing in the transfer count,
// nest.Reduce first shrinks the DP by two exchange arguments on the ranks'
// relevance. Ranks relevant to exactly the same tensors are
// interchangeable: some optimal order keeps them adjacent (moving one next
// to the other leaves the counts of tensors relevant to both unchanged and
// can only lower the others), and an adjacent pair costs what one loop
// with the product bound costs, so they merge. A rank relevant to every
// tensor multiplies every count in every order once it is outermost, and
// moving it there never raises a count, so it leaves the DP as a factor.
// The Fig. 12 convolutions' six ranks thus reach the DP as three classes
// ({P,Q}, {C,R,S}, {N}), and a BMM's H is hoisted. A rank with a grouping
// divisor (grouped BMM's H) is excluded from both rules: as a tensor's
// innermost relevant loop it contributes its grouped factor, not its
// bound, so it is neither a factor of a merged bound nor a plain
// multiplier of every count.
package snowcat

import (
	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/nest"
	"repro/internal/shape"
)

// TensorAccess reports the data movement attributed to one tensor.
type TensorAccess struct {
	Tensor     string
	TileElems  int64 // live footprint in the buffer, in elements
	Iterations int64 // number of tile transfers to/from the backing store
	Elems      int64 // TileElems * Iterations
}

// Result is the Snowcat model's evaluation of one mapping.
type Result struct {
	BufferBytes int64 // buffer size requirement (sum of tile footprints)
	AccessBytes int64 // total backing-store traffic, paper-style counting
	PerTensor   []TensorAccess

	// Refined read/write split: writes cover the output tensor's
	// transfers (final results plus spilled partial sums); ReadBytes adds
	// the reloads of spilled partials to the input traffic. The headline
	// AccessBytes intentionally follows the paper's one-count-per-transfer
	// model; ReadBytes+WriteBytes >= AccessBytes.
	ReadBytes  int64
	WriteBytes int64
}

// Evaluate runs the Snowcat model for mapping m of Einsum e. The mapping
// must be valid for e (see Mapping.Validate); Evaluate does not re-check
// to keep the exhaustive-search inner loop cheap.
func Evaluate(e *einsum.Einsum, m *mapping.Mapping) Result {
	tiles := m.TileSizes()
	res := Result{PerTensor: make([]TensorAccess, 0, len(e.Tensors))}

	var bufElems int64
	for i := range e.Tensors {
		t := &e.Tensors[i]
		fp := e.Footprint(t, tiles)
		bufElems += fp
		iters := iterations(t, m)
		elems := shape.Product(fp, iters)
		res.PerTensor = append(res.PerTensor, TensorAccess{
			Tensor:     t.Name,
			TileElems:  fp,
			Iterations: iters,
			Elems:      elems,
		})
		res.AccessBytes += elems * e.ElementSize
		if t.Output {
			res.WriteBytes += elems * e.ElementSize
			// Every transfer beyond the first write of each region is a
			// partial-sum spill that must also be read back.
			if reload := elems - e.TensorSize(t); reload > 0 {
				res.ReadBytes += reload * e.ElementSize
			}
		} else {
			res.ReadBytes += elems * e.ElementSize
		}
	}
	res.BufferBytes = bufElems * e.ElementSize
	return res
}

// iterations computes the number of backing-store transfers for tensor t
// under mapping m by instantiating the shared product rule (internal/nest)
// on the mapping's outer-loop nest. A grouped rank (grouped BMM weight
// sharing) contributes a reduced factor when it is the tensor's innermost
// relevant loop, because consecutive head iterations within a group reuse
// the same weight tile.
func iterations(t *einsum.Tensor, m *mapping.Mapping) int64 {
	loops := make([]nest.Loop, 0, len(m.OuterOrder))
	for _, r := range m.OuterOrder {
		loops = append(loops, nest.Loop{Rank: r, Bound: m.Splits[r].Outer})
	}
	return nest.IterationsGrouped(loops, t.Relevant, func(l nest.Loop) int64 {
		gd := t.GroupDivFor(l.Rank)
		if gd <= 1 {
			return l.Bound
		}
		// Number of distinct group tiles visited across the loop.
		in := m.Splits[l.Rank].Inner
		return shape.Max(1, shape.CeilDiv(l.Bound*in, shape.Max(in, gd)))
	})
}

// OperationalIntensity returns MACs per element of backing-store traffic
// for the evaluated mapping (the metric plotted on the paper's OI mesas).
func OperationalIntensity(e *einsum.Einsum, r Result) float64 {
	return float64(e.MACs()) / (float64(r.AccessBytes) / float64(e.ElementSize))
}
