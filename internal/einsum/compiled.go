package einsum

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/shape"
)

// Compiled is the rank-indexed form of an Einsum's tensor projections, for
// evaluators that compute tile footprints inside exhaustive traversals.
// Tiles are slices indexed like the Einsum's Ranks, and tensors are
// indexed like its Tensors, so a footprint costs a few multiply-adds per
// dimension with no map lookups, string hashing or allocation. It computes
// exactly what the map-based Einsum.Footprint computes, which stays as the
// reference. A Compiled value is immutable and safe for concurrent use.
type Compiled struct {
	tensors []compiledTensor
	shape   []int64 // per rank
	batch   uint64  // bit i: rank i is a batch rank (Batch)
	grouped uint64  // bit i: some tensor applies a grouping divisor to rank i
}

type compiledTensor struct {
	dims    []compiledDim
	relMask uint64 // bit i: rank i is relevant
	size    int64  // elements of the whole tensor
	output  bool
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
	for _, r := range e.Ranks {
		c.shape = append(c.shape, r.Shape)
	}
	for i := range e.Tensors {
		t := &e.Tensors[i]
		ct := &c.tensors[i]
		ct.size = e.TensorSize(t)
		ct.output = t.Output
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

// symmetryBudget caps the rank assignments Automorphisms tries. The
// figure workloads need a few dozen; an Einsum with many interchangeable
// ranks gives up instead of searching factorially many permutations.
const symmetryBudget = 1024

// Automorphisms returns the rank permutations that map the Einsum onto
// itself, identity excluded: perm[i] is the rank that rank i becomes. A
// permutation qualifies when it keeps every rank's shape, fixes every
// grouped rank, and maps the output tensor to the output and the inputs
// onto the inputs, a tensor compared as the multiset of its dims and a
// dim as its grouping divisor and the multiset of its (rank, coefficient)
// terms. Such a permutation maps every tile's footprints onto the same
// footprints of the permuted tile. The search backtracks within classes
// of ranks that agree on shape and on how the tensors use them; when it
// exceeds symmetryBudget assignments it returns nil, which claims no
// symmetry and is always safe.
func (c *Compiled) Automorphisms() [][]int {
	if !c.twins() {
		return nil
	}
	n := len(c.shape)
	class := c.rankClasses()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	have := c.tensorKeys(perm, false)
	used := make([]bool, n)
	budget := symmetryBudget
	var out [][]int
	var assign func(i int) bool // false once the budget runs out
	assign = func(i int) bool {
		if i == n {
			if !isIdentity(perm) && slices.Equal(c.tensorKeys(perm, false), have) {
				out = append(out, slices.Clone(perm))
			}
			return true
		}
		for j := range perm {
			if used[j] || class[j] != class[i] {
				continue
			}
			if budget--; budget < 0 {
				return false
			}
			perm[i], used[j] = j, true
			ok := assign(i + 1)
			used[j] = false
			if !ok {
				return false
			}
		}
		return true
	}
	if !assign(0) {
		return nil
	}
	return out
}

// KeepsFloatOrder reports whether MeanFootprint, given the image of a
// tile under the automorphism perm, performs bit for bit the floating-
// point operations it performs on the tile itself, up to exchanges IEEE
// arithmetic makes exact: every tensor's image must equal a tensor of the
// same role dim by dim in order, each dim's terms in order, except that
// the first two dims may trade places (the product starts at 1, and
// fl(fl(1·a)·b) = fl(b·a)). A GEMM's m ↔ n swap qualifies; a
// convolution's (p, r) ↔ (q, s) swap does not, since it trades the weight
// tensor's third and fourth dims.
func (c *Compiled) KeepsFloatOrder(perm []int) bool {
	id := make([]int, len(perm))
	for i := range id {
		id[i] = i
	}
	return slices.Equal(c.tensorKeys(perm, true), c.tensorKeys(id, true))
}

// twins reports whether two ungrouped ranks share a shape: without such a
// pair only the identity qualifies, and Automorphisms returns before it
// allocates.
func (c *Compiled) twins() bool {
	for r, n := range c.shape {
		for q := 0; q < r; q++ {
			if c.shape[q] == n && !c.Grouped(q) && !c.Grouped(r) {
				return true
			}
		}
	}
	return false
}

// rankClasses labels each rank with the lowest rank an automorphism may
// map it to: one of equal shape whose terms are of the same kinds
// (tensor role and rank, grouping divisor, dim width). Coefficients are
// left to the leaf check (tensorKeys), which pairs them with their ranks.
// A grouped rank is its own class, so it stays fixed.
func (c *Compiled) rankClasses() []int {
	uses := make([][][4]int64, len(c.shape))
	for _, ct := range c.tensors {
		role := int64(0)
		if ct.output {
			role = 1
		}
		for _, d := range ct.dims {
			for _, r := range d.ranks {
				uses[r] = append(uses[r], [4]int64{role, int64(len(ct.dims)), d.groupDiv, int64(len(d.ranks))})
			}
		}
	}
	class := make([]int, len(c.shape))
	for r := range class {
		class[r] = r
		slices.SortFunc(uses[r], func(a, b [4]int64) int { return slices.Compare(a[:], b[:]) })
		for q := 0; q < r && !c.Grouped(r); q++ {
			if !c.Grouped(q) && c.shape[q] == c.shape[r] && slices.Equal(uses[q], uses[r]) {
				class[r] = q
				break
			}
		}
	}
	return class
}

// tensorKeys renders every tensor with each rank r renamed perm[r] — its
// role, then each dim's grouping divisor and (rank, coefficient) terms —
// and returns the keys sorted, so two permutations that map the tensors
// onto each other have equal key lists. Unless ordered, each dim's terms
// and each tensor's dims are sorted too, so a key names the multisets;
// ordered keeps MeanFootprint's evaluation order, sorting only the first
// two dims.
func (c *Compiled) tensorKeys(perm []int, ordered bool) []string {
	keys := make([]string, len(c.tensors))
	var dims []string
	var terms [][2]int64
	for t, ct := range c.tensors {
		dims = dims[:0]
		for _, d := range ct.dims {
			terms = terms[:0]
			for k, r := range d.ranks {
				terms = append(terms, [2]int64{int64(perm[r]), d.coeffs[k]})
			}
			if !ordered {
				slices.SortFunc(terms, func(a, b [2]int64) int { return slices.Compare(a[:], b[:]) })
			}
			b := strconv.AppendInt(nil, d.groupDiv, 10)
			for _, term := range terms {
				b = strconv.AppendInt(append(b, ' '), term[0], 10)
				b = strconv.AppendInt(append(b, '*'), term[1], 10)
			}
			dims = append(dims, string(b))
		}
		if !ordered {
			slices.Sort(dims)
		} else if len(dims) > 1 && dims[1] < dims[0] {
			dims[0], dims[1] = dims[1], dims[0]
		}
		keys[t] = strconv.FormatBool(ct.output) + "[" + strings.Join(dims, ",") + "]"
	}
	slices.Sort(keys)
	return keys
}

func isIdentity(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}

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
