package einsum

import "repro/internal/shape"

// Compiled is the rank-indexed form of an Einsum's tensor projections, for
// evaluators that compute tile footprints inside exhaustive traversals.
// Tiles are slices indexed like the Einsum's Ranks, and tensors are
// indexed like its Tensors, so a footprint costs a few multiply-adds per
// dimension with no map lookups, string hashing or allocation. It computes
// exactly what the map-based Einsum.Footprint computes, which stays as the
// reference. A Compiled value is immutable and safe for concurrent use.
type Compiled struct {
	tensors []compiledTensor
	batch   uint64 // bit i: rank i is a batch rank (Batch)
	grouped uint64 // bit i: some tensor applies a grouping divisor to rank i
}

type compiledTensor struct {
	dims    []compiledDim
	relMask uint64 // bit i: rank i is relevant
	size    int64  // elements of the whole tensor
}

type compiledDim struct {
	ranks      []int // term ranks, indexed like the Einsum's Ranks
	coeffs     []int64
	groupDiv   int64
	fullExtent int64
}

// Compile builds the rank-indexed projections of e. The Einsum must be
// valid and have at most 64 ranks.
func (e *Einsum) Compile() *Compiled {
	full := e.rankShapes()
	idx := make(map[string]int, len(e.Ranks))
	for i, r := range e.Ranks {
		idx[r.Name] = i
	}
	c := &Compiled{tensors: make([]compiledTensor, len(e.Tensors)), batch: ^uint64(0)}
	for i := range e.Tensors {
		t := &e.Tensors[i]
		ct := &c.tensors[i]
		ct.size = e.TensorSize(t)
		// plain: ranks some dim indexes alone, with coefficient 1 and no
		// grouping divisor; twice: ranks more than one dim indexes.
		var plain, twice uint64
		for j := range t.Dims {
			d := &t.Dims[j]
			cd := compiledDim{groupDiv: d.GroupDiv, fullExtent: d.DimExtent(full)}
			var dimMask uint64
			for _, term := range d.Terms {
				cd.ranks = append(cd.ranks, idx[term.Rank])
				cd.coeffs = append(cd.coeffs, term.Coeff)
				dimMask |= 1 << idx[term.Rank]
			}
			if d.GroupDiv > 1 {
				c.grouped |= dimMask
			} else if len(d.Terms) == 1 && d.Terms[0].Coeff == 1 {
				plain |= dimMask
			}
			twice |= ct.relMask & dimMask
			ct.relMask |= dimMask
			ct.dims = append(ct.dims, cd)
		}
		c.batch &= plain &^ twice
	}
	return c
}

// Relevance returns tensor t's relevance mask: bit i is set when rank i
// affects the tensor's footprint (Tensor.Relevant).
func (c *Compiled) Relevance(t int) uint64 { return c.tensors[t].relMask }

// Batch reports whether rank r is a batch rank: every tensor indexes it
// in exactly one dimension, which it forms alone with coefficient 1 and
// no grouping divisor (a BMM's H). Every footprint of a tile is then the
// rank's tile times the footprint over the other ranks.
func (c *Compiled) Batch(r int) bool { return c.batch>>r&1 == 1 }

// Grouped reports whether some tensor applies a grouping divisor to rank
// r (Tensor.GroupDivFor above 1).
func (c *Compiled) Grouped(r int) bool { return c.grouped>>r&1 == 1 }

// Size returns the number of elements of tensor t (Einsum.TensorSize).
func (c *Compiled) Size(t int) int64 { return c.tensors[t].size }

// Footprint returns the number of elements of tensor t touched by a tile
// with per-rank sizes tile, each dimension clamped to its full extent —
// Einsum.Footprint with every rank's tile given. The product cannot
// overflow: each factor is at most its dimension's full extent, and the
// product of those is the tensor size Compile computed with overflow
// checks.
func (c *Compiled) Footprint(t int, tile []int64) int64 {
	ct := &c.tensors[t]
	fp := int64(1)
	for i := range ct.dims {
		d := &ct.dims[i]
		var ext int64
		if d.groupDiv > 1 {
			ext = shape.CeilDiv(tile[d.ranks[0]], d.groupDiv)
		} else {
			ext = 1
			for j, r := range d.ranks {
				ext += d.coeffs[j] * (tile[r] - 1)
			}
		}
		fp *= min(ext, d.fullExtent)
	}
	return fp
}

// MeanFootprint is Footprint for fractional per-rank tile extents, such as
// the average tile of an imperfect tiling: affine dimensions take the same
// sum in real arithmetic, and a grouped dimension covers tile/GroupDiv
// elements but at least one, instead of the ceiling.
func (c *Compiled) MeanFootprint(t int, tile []float64) float64 {
	ct := &c.tensors[t]
	fp := 1.0
	for i := range ct.dims {
		d := &ct.dims[i]
		var ext float64
		if d.groupDiv > 1 {
			ext = max(tile[d.ranks[0]]/float64(d.groupDiv), 1)
		} else {
			ext = 1
			for j, r := range d.ranks {
				ext += float64(d.coeffs[j]) * (tile[r] - 1)
			}
		}
		fp *= min(ext, float64(d.fullExtent))
	}
	return fp
}
