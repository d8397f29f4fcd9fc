package multilevel

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/einsum"
	"repro/internal/nest"
	"repro/internal/pareto"
	"repro/internal/shape"
)

// referenceDerive is a frozen, serial copy of the traversal the order DP
// replaced: every outer order crossed with every mid order, each scored
// by the product rule on the composite nest. It is the parity oracle for
// DeriveRange. It also records, per L1-feasible combination, the best
// values the DP must reproduce: least DRAM traffic, least L2 traffic, and
// the joint (least DRAM, then least L2) pair, all in bytes.
func referenceDerive(e *einsum.Einsum, l1CapBytes int64) (*Result, map[int64][4]int64) {
	perCombo := map[int64][4]int64{}
	n := len(e.Ranks)
	names := make([]string, n)
	options := make([][]shape.ThreeSplit, n)
	combos := int64(1)
	for i, r := range e.Ranks {
		names[i] = r.Name
		options[i] = shape.ThreeSplits(r.Shape)
		combos *= int64(len(options[i]))
	}
	tensors := make([]*einsum.Tensor, len(e.Tensors))
	for i := range e.Tensors {
		tensors[i] = &e.Tensors[i]
	}
	es := e.ElementSize
	perms := shape.Permutations(n)
	dramB, l2B := pareto.NewBuilder(), pareto.NewBuilder()
	res := &Result{L1CapacityBytes: l1CapBytes, joint: map[int64]jointEntry{}}

	tiles0, tiles1 := map[string]int64{}, map[string]int64{}
	boundsMid, boundsOut := map[string]int64{}, map[string]int64{}
	idx := make([]int, n)
	fp0 := make([]int64, len(tensors))
	fp1 := make([]int64, len(tensors))
	loops := make([]nest.Loop, 2*n)
	for flat := int64(0); flat < combos; flat++ {
		for i, name := range names {
			ts := options[i][idx[i]]
			tiles0[name] = ts.L0
			tiles1[name] = ts.L0 * ts.L1
			boundsMid[name] = ts.L1
			boundsOut[name] = ts.L2
		}
		var buf1, buf2 int64
		for i, t := range tensors {
			fp0[i] = e.Footprint(t, tiles0)
			fp1[i] = e.Footprint(t, tiles1)
			buf1 += fp0[i]
			buf2 += fp1[i]
		}
		if buf1*es <= l1CapBytes {
			key := buf2 * es
			best := [4]int64{-1, -1, -1, -1} // dram, l2, joint dram, joint l2
			for _, pOut := range perms {
				for i, p := range pOut {
					loops[i] = nest.Loop{Rank: names[p], Bound: boundsOut[names[p]]}
				}
				var dram int64
				for i, t := range tensors {
					dram += fp1[i] * nest.Iterations(loops[:n], t.Relevant)
				}
				dramB.Add(key, dram*es)
				for _, pMid := range perms {
					for i, p := range pMid {
						loops[n+i] = nest.Loop{Rank: names[p], Bound: boundsMid[names[p]]}
					}
					var l2traffic int64
					for i, t := range tensors {
						l2traffic += fp0[i] * nest.Iterations(loops, t.Relevant)
					}
					res.Mappings++
					if best[0] < 0 || dram*es < best[0] {
						best[0] = dram * es
					}
					if best[1] < 0 || l2traffic*es < best[1] {
						best[1] = l2traffic * es
					}
					if best[2] < 0 || (jointEntry{best[2], best[3]}).better(dram*es, l2traffic*es) {
						best[2], best[3] = dram*es, l2traffic*es
					}
					l2B.Add(key, l2traffic*es)
					je, ok := res.joint[key]
					if !ok || je.better(dram*es, l2traffic*es) {
						res.joint[key] = jointEntry{dram: dram * es, l2: l2traffic * es}
					}
				}
			}
			perCombo[flat] = best
		}
		for i := n - 1; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(options[i]) {
				break
			}
			idx[i] = 0
		}
	}
	res.DRAM = dramB.Curve()
	res.DRAM.AlgoMinBytes = e.AlgorithmicMinBytes()
	res.DRAM.TotalOperandBytes = e.TotalOperandBytes()
	res.L2 = l2B.Curve()
	res.L2.AlgoMinBytes = e.AlgorithmicMinBytes()
	res.L2.TotalOperandBytes = e.TotalOperandBytes()
	return res, perCombo
}

// TestOrderDPMatchesPermutationReference pins the order DP to the frozen
// permutation traversal: per L1-feasible combination the same least DRAM,
// least L2 and joint (DRAM-first) traffic; byte-identical DRAM and L2
// curves; the identical joint table (so identical MinL2GivenOptimalDRAM and CompositionGap
// answers) and the identical represented-mapping count, over GEMM, BMM,
// grouped BMM and strided-conv-like shapes at tight and loose L1
// capacities.
func TestOrderDPMatchesPermutationReference(t *testing.T) {
	// A 1-D strided, dilated convolution: O[k,p] = I[2p+2r] * W[k,r].
	conv := &einsum.Einsum{
		Name:  "conv1d",
		Ranks: []einsum.Rank{{Name: "K", Shape: 2}, {Name: "P", Shape: 6}, {Name: "R", Shape: 3}},
		Tensors: []einsum.Tensor{
			{Name: "I", Dims: []einsum.Dim{{Terms: []einsum.Term{{Rank: "P", Coeff: 2}, {Rank: "R", Coeff: 2}}}}},
			{Name: "W", Dims: []einsum.Dim{{Terms: []einsum.Term{{Rank: "K", Coeff: 1}}}, {Terms: []einsum.Term{{Rank: "R", Coeff: 1}}}}},
			{Name: "O", Output: true, Dims: []einsum.Dim{{Terms: []einsum.Term{{Rank: "K", Coeff: 1}}}, {Terms: []einsum.Term{{Rank: "P", Coeff: 1}}}}},
		},
		ElementSize: einsum.DefaultElementSize,
	}
	if err := conv.Validate(); err != nil {
		t.Fatal(err)
	}
	workloads := []*einsum.Einsum{
		einsum.GEMM("gemm", 16, 12, 8),
		einsum.GEMM("oblong", 64, 4, 18),
		// Has DRAM-optimal outer orders that differ in L2 traffic, so the
		// joint entry depends on the DRAM-first tie-break.
		einsum.GEMM("tie", 2, 4, 4),
		einsum.BMM("bmm", 2, 8, 6, 4),
		einsum.GroupedBMM("gbmm", 4, 2, 4, 6, 2),
		conv,
	}
	for _, e := range workloads {
		for _, l1 := range []int64{64, 512, 1 << 30} {
			t.Run(fmt.Sprintf("%s/l1=%d", e.Name, l1), func(t *testing.T) {
				want, perCombo := referenceDerive(e, l1)
				if want.Mappings == 0 {
					t.Fatal("no L1-feasible mapping: the case checks nothing")
				}
				checkCombos(t, e, perCombo)
				got, err := Derive(e, l1, Options{Workers: 3})
				if err != nil {
					t.Fatal(err)
				}
				if g, w := got.DRAM.Canonical(), want.DRAM.Canonical(); g != w {
					t.Fatalf("DRAM curve differs:\n got %s\nwant %s", g, w)
				}
				if g, w := got.L2.Canonical(), want.L2.Canonical(); g != w {
					t.Fatalf("L2 curve differs:\n got %s\nwant %s", g, w)
				}
				if got.Mappings != want.Mappings {
					t.Fatalf("Mappings = %d, want %d", got.Mappings, want.Mappings)
				}
				if !reflect.DeepEqual(got.joint, want.joint) {
					t.Fatalf("joint tables differ:\n got %v\nwant %v", got.joint, want.joint)
				}
				var caps []int64
				for _, p := range want.L2.Points() {
					caps = append(caps, p.BufferBytes-1, p.BufferBytes, p.BufferBytes+1)
				}
				for _, c := range caps {
					gl2, gd, gok := got.MinL2GivenOptimalDRAM(c)
					wl2, wd, wok := want.MinL2GivenOptimalDRAM(c)
					if gl2 != wl2 || gd != wd || gok != wok {
						t.Fatalf("MinL2GivenOptimalDRAM(%d) = (%d,%d,%v), want (%d,%d,%v)", c, gl2, gd, gok, wl2, wd, wok)
					}
				}
				if g, w := got.CompositionGap(caps), want.CompositionGap(caps); !reflect.DeepEqual(g, w) {
					t.Fatalf("CompositionGap differs:\n got %v\nwant %v", g, w)
				}
			})
		}
	}
}

// checkCombos compares combo.best with the reference's per-combination
// optima, decoding each flat index the way DeriveRange does.
func checkCombos(t *testing.T, e *einsum.Einsum, want map[int64][4]int64) {
	t.Helper()
	c := newCombo(e)
	es := e.ElementSize
	for flat, w := range want {
		rem := flat
		for i := len(e.Ranks) - 1; i >= 0; i-- {
			opts := shape.ThreeSplits(e.Ranks[i].Shape)
			c.splits[i] = opts[rem%int64(len(opts))]
			rem /= int64(len(opts))
		}
		c.l1Elems()
		_, dram, freeL2, jointL2 := c.best()
		got := [4]int64{dram * es, freeL2 * es, dram * es, jointL2 * es}
		if got != w {
			t.Fatalf("combination %d %v: DP (dram, l2, joint dram, joint l2) = %v, permutations %v",
				flat, c.splits, got, w)
		}
	}
}
