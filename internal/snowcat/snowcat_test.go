package snowcat

import (
	"testing"
	"testing/quick"

	"repro/internal/einsum"
	"repro/internal/mapping"
	"repro/internal/shape"
)

// gemm8 is an 8x8x8 GEMM tiled as M0=2 (M1=4), K0=4 (K1=2), N0=8 (N1=1).
func gemm8Mapping(order ...string) (*einsum.Einsum, *mapping.Mapping) {
	g := einsum.GEMM("g", 8, 8, 8)
	m := &mapping.Mapping{
		Splits: map[string]shape.Split{
			"M": {Inner: 2, Outer: 4},
			"K": {Inner: 4, Outer: 2},
			"N": {Inner: 8, Outer: 1},
		},
		OuterOrder: order,
	}
	return g, m
}

func perTensor(r Result, name string) TensorAccess {
	for _, ta := range r.PerTensor {
		if ta.Tensor == name {
			return ta
		}
	}
	panic("tensor not found: " + name)
}

func TestEvaluateFig6Style(t *testing.T) {
	// Order (outermost->innermost): M1, K1, N1(bound 1).
	g, m := gemm8Mapping("M", "K", "N")
	if err := m.Validate(g); err != nil {
		t.Fatal(err)
	}
	r := Evaluate(g, m)

	// Buffer: A 2*4 + W 4*8 + B 2*8 = 56 elems = 112 B.
	if r.BufferBytes != 112 {
		t.Fatalf("BufferBytes = %d, want 112", r.BufferBytes)
	}
	// A (M,K): innermost relevant = K1 -> iters M1*K1 = 8, elems 64 (read once).
	if a := perTensor(r, "A"); a.Iterations != 8 || a.Elems != 64 {
		t.Fatalf("A = %+v, want iters 8 elems 64", a)
	}
	// W (K,N): innermost relevant = K1 -> iters 8, elems 256 (reloaded per M1).
	if w := perTensor(r, "W"); w.Iterations != 8 || w.Elems != 256 {
		t.Fatalf("W = %+v, want iters 8 elems 256", w)
	}
	// B (M,N): innermost relevant = M1 -> iters 4, elems 64 (written once).
	if b := perTensor(r, "B"); b.Iterations != 4 || b.Elems != 64 {
		t.Fatalf("B = %+v, want iters 4 elems 64", b)
	}
	if r.AccessBytes != (64+256+64)*2 {
		t.Fatalf("AccessBytes = %d, want 768", r.AccessBytes)
	}
	if r.ReadBytes != (64+256)*2 || r.WriteBytes != 64*2 {
		t.Fatalf("Read/Write = %d/%d, want 640/128", r.ReadBytes, r.WriteBytes)
	}
}

func TestEvaluatePartialSumSpill(t *testing.T) {
	// Order K1, M1: the reduction loop is outside B's innermost relevant
	// loop, so the output spills partial sums.
	g, m := gemm8Mapping("K", "M", "N")
	r := Evaluate(g, m)
	// B: innermost relevant = M1 -> iters K1*M1 = 8, elems 128.
	if b := perTensor(r, "B"); b.Iterations != 8 || b.Elems != 128 {
		t.Fatalf("B = %+v, want iters 8 elems 128", b)
	}
	// W: innermost relevant = K1 (outermost) -> iters 2, elems 64 (read once).
	if w := perTensor(r, "W"); w.Iterations != 2 || w.Elems != 64 {
		t.Fatalf("W = %+v, want iters 2 elems 64", w)
	}
	// Output spills: 128 transfers vs 64 final elements -> 64 reload elems.
	wantRead := (64 /*A*/ + 64 /*W*/ + 64 /*B reload*/) * 2
	if r.ReadBytes != int64(wantRead) {
		t.Fatalf("ReadBytes = %d, want %d", r.ReadBytes, wantRead)
	}
	if r.WriteBytes != 128*2 {
		t.Fatalf("WriteBytes = %d, want 256", r.WriteBytes)
	}
}

func TestEvaluateFullyBuffered(t *testing.T) {
	g := einsum.GEMM("g", 8, 8, 8)
	m := &mapping.Mapping{
		Splits: map[string]shape.Split{
			"M": {Inner: 8, Outer: 1},
			"K": {Inner: 8, Outer: 1},
			"N": {Inner: 8, Outer: 1},
		},
		OuterOrder: []string{"M", "K", "N"},
	}
	r := Evaluate(g, m)
	if r.AccessBytes != g.AlgorithmicMinBytes() {
		t.Fatalf("fully buffered accesses %d != algorithmic min %d",
			r.AccessBytes, g.AlgorithmicMinBytes())
	}
	if r.BufferBytes != g.TotalOperandBytes() {
		t.Fatalf("fully buffered buffer %d != total operand bytes %d",
			r.BufferBytes, g.TotalOperandBytes())
	}
}

func TestAccessesNeverBelowAlgorithmicMin(t *testing.T) {
	g := einsum.GEMM("g", 16, 8, 4)
	mapping.Space(g, func(m *mapping.Mapping) {
		r := Evaluate(g, m)
		if r.AccessBytes < g.AlgorithmicMinBytes() {
			t.Fatalf("mapping %s: accesses %d below algorithmic min %d",
				m, r.AccessBytes, g.AlgorithmicMinBytes())
		}
	})
}

func TestGroupedBMMWeightReuse(t *testing.T) {
	// H=8 heads, G=2 groups (4 heads share one weight head).
	g := einsum.GroupedBMM("g", 8, 2, 4, 4, 4)
	base := map[string]shape.Split{
		"H": {Inner: 1, Outer: 8},
		"M": {Inner: 4, Outer: 1},
		"K": {Inner: 4, Outer: 1},
		"N": {Inner: 4, Outer: 1},
	}
	// H innermost relevant for W (only active loop): consecutive heads in a
	// group reuse the weight tile -> only G=2 distinct loads.
	m := &mapping.Mapping{Splits: base, OuterOrder: []string{"H", "M", "K", "N"}}
	r := Evaluate(g, m)
	w := perTensor(r, "W")
	if w.Iterations != 2 {
		t.Fatalf("grouped W iterations = %d, want 2 (one per group)", w.Iterations)
	}
	// Ordinary BMM (G=H): same mapping loads W once per head.
	b := einsum.BMM("b", 8, 4, 4, 4)
	rb := Evaluate(b, &mapping.Mapping{Splits: base, OuterOrder: []string{"H", "M", "K", "N"}})
	if wb := perTensor(rb, "W"); wb.Iterations != 8 {
		t.Fatalf("BMM W iterations = %d, want 8", wb.Iterations)
	}
}

func TestGroupedFactorNotAppliedWhenHNotInnermost(t *testing.T) {
	g := einsum.GroupedBMM("g", 8, 2, 4, 4, 4)
	m := &mapping.Mapping{
		Splits: map[string]shape.Split{
			"H": {Inner: 1, Outer: 8},
			"M": {Inner: 4, Outer: 1},
			"K": {Inner: 1, Outer: 4},
			"N": {Inner: 4, Outer: 1},
		},
		// K1 inside H1: each head iteration re-streams its weight group.
		OuterOrder: []string{"H", "K", "M", "N"},
	}
	r := Evaluate(g, m)
	w := perTensor(r, "W")
	if w.Iterations != 8*4 {
		t.Fatalf("W iterations = %d, want 32 (no intra-group reuse)", w.Iterations)
	}
}

func TestBufferRequirementMatchesFootprintsProperty(t *testing.T) {
	g := einsum.GEMM("g", 16, 16, 16)
	f := func(mi, ki, ni uint8, perm uint8) bool {
		divs := shape.Divisors(16)
		pick := func(x uint8) shape.Split {
			d := divs[int(x)%len(divs)]
			return shape.Split{Inner: d, Outer: 16 / d}
		}
		perms := shape.Permutations(3)
		p := perms[int(perm)%len(perms)]
		names := []string{"M", "K", "N"}
		order := []string{names[p[0]], names[p[1]], names[p[2]]}
		m := &mapping.Mapping{
			Splits: map[string]shape.Split{
				"M": pick(mi), "K": pick(ki), "N": pick(ni),
			},
			OuterOrder: order,
		}
		r := Evaluate(g, m)
		tiles := m.TileSizes()
		want := (tiles["M"]*tiles["K"] + tiles["K"]*tiles["N"] + tiles["M"]*tiles["N"]) * 2
		return r.BufferBytes == want && r.AccessBytes >= g.AlgorithmicMinBytes()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
