package fusion

import (
	"context"
	"fmt"
	"math"

	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/traverse"
)

// TiledFusion derives the sequential tiled-fusion bound for a chain of at
// least two ops under the FFMT constraints of Fig. 16/17:
//
//   - The chain is traversed M1 = M/M0 times over blocks of M0 rows.
//   - Op 0 follows FFMT-TiledKN: its output row may be produced in N2(0)
//     sub-partitions, re-iterating ops 0 and 1 N2(0) times per block and
//     re-reading op 0's input N2(0) times (Access_I,0 = N2(0)*M*K(0)).
//   - Middle ops follow FFMT-Full: they consume and produce complete rows.
//   - The last op may follow FFMT-TiledN, producing its output row in
//     sub-partitions (no access penalty; the output goes to the backing
//     store anyway).
//   - Weights are either streamed once per traversal
//     (Access_W = max(M1, instances) * WInst) or held resident
//     (Access_W = total weight size; BufReq grows by the resident slice).
//
// The fused mapspace — M0, N2(0), the subset of weight-resident layers and
// the last op's output tiling — is covered exhaustively and the Pareto
// frontier returned (Sec. V-E). See TiledFusionRange for how the sweep
// shares work across the templates of one (M0, N2(0)) block and why one
// last-op tiling per template suffices.
func TiledFusion(c *Chain) (*pareto.Curve, error) {
	curve, _, err := TiledFusionStats(c, 0)
	return curve, err
}

// TiledFusionStats is TiledFusion with an explicit worker count (<= 0
// means GOMAXPROCS) and traversal statistics. The fused template space —
// (M0, N2(0), weight-residency subset) triples — is flattened to one
// index range and chunked across workers (see internal/traverse), so the
// sweep scales with cores and the curve is byte-identical for every
// worker count.
func TiledFusionStats(c *Chain, workers int) (*pareto.Curve, traverse.Stats, error) {
	space, err := TiledFusionSpace(c)
	if err != nil {
		return nil, traverse.Stats{}, err
	}
	return TiledFusionRange(context.Background(), c, 0, space, workers)
}

// tiledSpace captures the flattened FFMT template enumeration of a chain:
// flat index idx decodes (innermost first) into a residency subset, an
// N2(0) output-tiling factor and an M0 block height. The subsets of one
// (M0, N2(0)) pair are consecutive indices: block idx / subsets.
type tiledSpace struct {
	m0Options, n2Options []int64
	subsets, items       int64
	// lastTiles counts the last op's output-tiling factors other than 1
	// (the mode-B candidates of a template); lastTileOut is the output
	// width the largest of them leaves the last op holding.
	lastTiles, lastTileOut int64
}

func newTiledSpace(c *Chain) (tiledSpace, error) {
	if err := c.Validate(); err != nil {
		return tiledSpace{}, err
	}
	if len(c.Ops) < 2 {
		return tiledSpace{}, fmt.Errorf("fusion: TiledFusion needs >= 2 ops, chain %s has %d", c.Name, len(c.Ops))
	}
	e0 := &c.Ops[0]
	last := &c.Ops[len(c.Ops)-1]
	sp := tiledSpace{
		m0Options: shape.Divisors(c.M),
		n2Options: shape.Divisors(e0.OutW),
	}
	if e0.NoOutputTiling {
		sp.n2Options = []int64{1}
	}
	lastTileOptions := shape.Divisors(last.OutW)
	if last.NoOutputTiling {
		lastTileOptions = []int64{1}
	}
	sp.lastTiles = int64(len(lastTileOptions) - 1) // every factor but 1
	sp.lastTileOut = last.OutW / lastTileOptions[len(lastTileOptions)-1]
	blocks := int64(len(sp.m0Options) * len(sp.n2Options))
	if len(c.Ops) > 62 || blocks > math.MaxInt64>>len(c.Ops) {
		return tiledSpace{}, fmt.Errorf("fusion: tiled-fusion space of %d-op chain %s overflows int64 (%d blocks x 2^%d residency subsets)",
			len(c.Ops), c.Name, blocks, len(c.Ops))
	}
	sp.subsets = int64(1) << len(c.Ops)
	sp.items = blocks * sp.subsets
	return sp, nil
}

// TiledFusionSpace returns the size of the flat FFMT template index space
// TiledFusion sweeps for c — the [0, Space) range that TiledFusionRange
// slices and a cross-process shard plan (internal/shard) divides. A chain
// whose space does not fit an int64 is an error.
func TiledFusionSpace(c *Chain) (int64, error) {
	sp, err := newTiledSpace(c)
	if err != nil {
		return 0, err
	}
	return sp.items, nil
}

// TiledFusionRange derives the partial tiled-fusion frontier over the
// global template indices [lo, hi) — one shard's (or one checkpoint
// block's) share of the sweep. Deriving a disjoint cover of
// [0, TiledFusionSpace(c)) and merging the partial curves with
// pareto.Union reproduces TiledFusionStats' curve byte-for-byte; the
// annotations are already set on every partial.
//
// The 2^E residency subsets of one (M0, N2(0)) block differ only in which
// ops' weights they hold resident. The input, output and halo accesses,
// each op's streamed and resident weight terms, and the I/O peaks belong
// to the block: each worker computes them once per block and again only
// when a chunk crosses into the next block, so a range cut mid-block costs
// one extra build and no change of result.
//
// Per template, mode A lets the last op accumulate its full output row;
// mode B (FFMT-TiledN) splits that row by a factor lt > 1. Every mode-B
// candidate moves exactly mode A's accesses, and the I/O peak never
// shrinks as the last op's held output widens, so the largest factor —
// the narrowest held output — weakly dominates every other mode-B point.
// Only that point is added: the frontier keeps the unique staircase of its
// input points, so the curve is the one the full enumeration gives. The
// traversal statistics still count every candidate of the template
// (1 + the number of factors lt > 1 when mode B applies), as the full
// enumeration evaluates them.
//
// Cancelling ctx aborts the sweep within about one worker chunk and
// returns the context's error with no curve.
func TiledFusionRange(ctx context.Context, c *Chain, lo, hi int64, workers int) (*pareto.Curve, traverse.Stats, error) {
	sp, err := newTiledSpace(c)
	if err != nil {
		return nil, traverse.Stats{}, err
	}
	if lo < 0 || hi < lo || hi > sp.items {
		return nil, traverse.Stats{}, fmt.Errorf("fusion: TiledFusionRange [%d, %d) outside [0, %d)", lo, hi, sp.items)
	}
	curve, ts, err := traverse.FrontierRange(ctx, lo, hi, workers, func() traverse.ChunkFunc {
		blk := newTiledBlock(c)
		return func(lo, hi int64, b *pareto.Builder) int64 {
			var count int64
			for idx := lo; idx < hi; idx++ {
				if k := idx / sp.subsets; k != blk.index {
					blk.build(&sp, k)
				}
				count += blk.add(b, idx%sp.subsets)
			}
			return count
		}
	})
	if err != nil {
		return nil, ts, err
	}
	curve.AlgoMinBytes = c.FusedAlgoMinBytes()
	curve.TotalOperandBytes = c.UnfusedAlgoMinBytes()
	return curve, ts, nil
}

// tiledBlock holds what the residency subsets of one (M0, N2(0)) block
// share, in elements.
type tiledBlock struct {
	c     *Chain
	index int64 // block number idx / subsets; -1 before the first build
	// acc is the accesses with every weight streamed; resAcc[e] and
	// resBuf[e] are the access change and resident-buffer footprint of
	// holding op e's weights instead.
	acc            int64
	resAcc, resBuf []int64
	// ioA and ioB are the I/O peaks of mode A and of the dominating mode-B
	// tiling; modeB is the number of mode-B candidates a template counts
	// (0 when mode B does not apply).
	ioA, ioB, modeB int64
}

func newTiledBlock(c *Chain) *tiledBlock {
	return &tiledBlock{
		c:      c,
		index:  -1,
		resAcc: make([]int64, len(c.Ops)),
		resBuf: make([]int64, len(c.Ops)),
	}
}

// build fills the block for block number k of sp.
func (blk *tiledBlock) build(sp *tiledSpace, k int64) {
	c := blk.c
	e0 := &c.Ops[0]
	last := len(c.Ops) - 1
	n2 := sp.n2Options[k%int64(len(sp.n2Options))]
	m0 := sp.m0Options[k/int64(len(sp.n2Options))]
	m1 := c.M / m0

	blk.index = k
	blk.acc = shape.Product(n2, c.M, e0.InW) + // Access_I,0
		shape.Product(c.M, c.Ops[last].OutW) // Access_O,E-1
	if e0.HaloRows > 0 && m1 > 1 {
		// Sliding-window halo rows of the raw input are re-read once per
		// additional traversal.
		blk.acc += shape.Product(n2, m1-1, e0.HaloRows, e0.InW)
	}
	for e := range c.Ops {
		streamed, _ := weightTerm(c, e, m0, m1, false)
		resident, buf := weightTerm(c, e, m0, m1, true)
		blk.acc += streamed
		blk.resAcc[e] = resident - streamed
		blk.resBuf[e] = buf
	}

	// Mode A: the last op accumulates its full output row.
	blk.ioA = ioPeak(c, m0, n2, c.Ops[last].OutW)
	// Mode B: FFMT-TiledN on the last op. It needs the full input row
	// resident, which for a two-op chain conflicts with op 0's output
	// tiling unless N2(0) == 1.
	blk.modeB = 0
	if last >= 2 || n2 == 1 {
		blk.modeB = sp.lastTiles
		if blk.modeB > 0 {
			blk.ioB = ioPeak(c, m0, n2, sp.lastTileOut)
		}
	}
}

// add adds the candidates of residency subset f of the block to b, where
// bit e of f marks op e's weights as buffer-resident, and returns the
// number of candidates the template counts.
func (blk *tiledBlock) add(b *pareto.Builder, f int64) int64 {
	acc, wbuf := blk.acc, int64(0)
	for e := range blk.resAcc {
		if f&(1<<e) != 0 {
			acc += blk.resAcc[e]
			wbuf += blk.resBuf[e]
		}
	}
	es := blk.c.ElementSize
	b.Add((blk.ioA+wbuf)*es, acc*es)
	if blk.modeB > 0 {
		b.Add((blk.ioB+wbuf)*es, acc*es)
	}
	return 1 + blk.modeB
}

// weightTerms returns the weight access count and resident-weight buffer
// footprint (both in elements) for residency subset f, where bit e of f
// marks op e's weights as buffer-resident.
func weightTerms(c *Chain, m0, m1 int64, f int) (acc, buf int64) {
	for e := range c.Ops {
		a, b := weightTerm(c, e, m0, m1, f&(1<<e) != 0)
		acc += a
		buf += b
	}
	return acc, buf
}

// weightTerm returns op e's weight access count and resident-weight buffer
// footprint (both in elements) for M0-row blocks traversed m1 times.
func weightTerm(c *Chain, e int, m0, m1 int64, resident bool) (acc, buf int64) {
	op := &c.Ops[e]
	if resident {
		// Each instance's weights loaded exactly once; the buffer holds
		// the concurrent instances whose rows fall inside one M0 block.
		concurrent := shape.Max(1, shape.CeilDiv(m0, op.RowsPerInst))
		return c.WeightTotalElements(e), shape.Product(op.WInst, concurrent)
	}
	// Streamed once per block traversal; a block spanning multiple
	// instances streams each instance's slice.
	return shape.Product(shape.Max(m1, c.Instances(e)), op.WInst), 0
}

// ioPeak computes the peak InputOutputBuf requirement in elements across
// the sequential execution of the chain's ops for one M0-row block:
// op 0 streams its input (FFMT-TiledKN with minimal input tile) and holds
// an OutW/N2 output slice; op 1 consumes that slice while accumulating its
// full output row; later middle ops hold full input and output rows; the
// last op's held output is lastOut wide.
func ioPeak(c *Chain, m0, n2, lastOut int64) int64 {
	last := len(c.Ops) - 1
	peak := int64(0)
	for e := range c.Ops {
		op := &c.Ops[e]
		in := op.InW
		switch e {
		case 0:
			in = 1
			if op.HaloRows > 0 {
				// Sliding-window ops must see whole input rows.
				in = op.InW
			}
		case 1:
			in = shape.CeilDiv(op.InW, n2)
		}
		out := op.OutW
		if e == 0 {
			out = shape.CeilDiv(op.OutW, n2)
		}
		if e == last {
			out = lastOut
		}
		need := shape.Product(m0+op.HaloRows, in) + shape.Product(m0, out)
		if need > peak {
			peak = need
		}
	}
	return peak
}
