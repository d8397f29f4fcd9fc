package einsum

import (
	"testing"
)

func TestParseGEMM(t *testing.T) {
	e, err := Parse("B[m,n] = A[m,k] * W[k,n] {M=64, K=32, N=16}")
	if err != nil {
		t.Fatal(err)
	}
	ref := GEMM("b", 64, 32, 16)
	if e.MACs() != ref.MACs() {
		t.Fatalf("MACs = %d, want %d", e.MACs(), ref.MACs())
	}
	if e.AlgorithmicMinElements() != ref.AlgorithmicMinElements() {
		t.Fatalf("algo min = %d, want %d",
			e.AlgorithmicMinElements(), ref.AlgorithmicMinElements())
	}
	if !e.Output().Output || e.Output().Name != "B" {
		t.Fatalf("output tensor wrong: %+v", e.Output())
	}
	if len(e.Inputs()) != 2 {
		t.Fatalf("inputs = %d", len(e.Inputs()))
	}
}

func TestParseConvStridedDilated(t *testing.T) {
	e, err := Parse("B[p,q,n] = A[2p+2r, 2q+2s, c] * W[c,n,r,s] {P=16,Q=16,N=8,C=4,R=3,S=3}")
	if err != nil {
		t.Fatal(err)
	}
	ref := Conv2D("conv", ConvConfig{P: 16, Q: 16, N: 8, C: 4, R: 3, S: 3, T: 2, D: 2})
	if e.MACs() != ref.MACs() {
		t.Fatalf("MACs mismatch: %d vs %d", e.MACs(), ref.MACs())
	}
	in := e.Inputs()[0]
	rin := ref.Inputs()[0]
	if e.TensorSize(in) != ref.TensorSize(rin) {
		t.Fatalf("strided input size mismatch: %d vs %d",
			e.TensorSize(in), ref.TensorSize(rin))
	}
}

func TestParseGroupedBMM(t *testing.T) {
	e, err := Parse("B[h,m,n] = A[h,m,k] * W[h/8, k, n] {H=32,M=16,K=8,N=16}")
	if err != nil {
		t.Fatal(err)
	}
	ref := GroupedBMM("g", 32, 4, 16, 8, 16)
	w := e.Inputs()[1]
	if e.TensorSize(w) != ref.TensorSize(&ref.Tensors[1]) {
		t.Fatalf("grouped weight size mismatch: %d vs %d",
			e.TensorSize(w), ref.TensorSize(&ref.Tensors[1]))
	}
	if gd := w.GroupDivFor("H"); gd != 8 {
		t.Fatalf("GroupDiv = %d", gd)
	}
}

func TestParseCaseInsensitiveRanks(t *testing.T) {
	e, err := Parse("B[M,n] = A[m,K] * W[k,N] {m=4, k=4, n=4}")
	if err != nil {
		t.Fatal(err)
	}
	if e.RankShape("M") != 4 || e.RankShape("K") != 4 {
		t.Fatal("rank canonicalization broken")
	}
}

func TestParseXAsMultiply(t *testing.T) {
	e, err := Parse("B[m,n] = A[m,k] x W[k,n] {M=4,K=4,N=4}")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Inputs()) != 2 {
		t.Fatalf("inputs = %d", len(e.Inputs()))
	}
}

func TestParseThreeInputChainStyle(t *testing.T) {
	// Multiple inputs in one Einsum (e.g. an elementwise-scaled GEMM).
	e, err := Parse("B[m,n] = A[m,k] * W[k,n] * S[n] {M=4,K=4,N=4}")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Inputs()) != 3 {
		t.Fatalf("inputs = %d", len(e.Inputs()))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"B[m,n]",                             // no '='
		"B[m,n] = A[m,k] {M=4,K=4}",          // N unshaped... (n used in output)
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4}", // missing N
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4,Z=4}", // unused rank shape
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=0}",     // zero shape
		"B[m,n] = A[m,k] * W[k/1,n] {M=4,K=4,N=4}",   // group divisor < 2
		"B[m,n] = A[m,k] * W[2k/4,n] {M=4,K=4,N=4}",  // coeff on grouped
		"B[m,n = A[m,k] * W[k,n] {M=4,K=4,N=4}",      // missing ']'
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4} garbage",
		"B[m,n] = A[m,k] * W[k,n] {M=4,K=4,N=4,M=8}",   // duplicate shape
		"B[m,\xe9] = A[m,\xe9] * W[\xe9] {M=4,\xe9=4}", // non-ASCII rank (invalid UTF-8)
		"B[m,Ī] = A[m,Ī] * W[Ī] {M=4,Ī=4}",             // non-ASCII rank
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Fatalf("accepted %q", s)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic")
		}
	}()
	MustParse("nonsense")
}

func TestParseRoundTripThroughString(t *testing.T) {
	// The String() rendering of a parsed GEMM parses back to an
	// equivalent workload.
	orig := MustParse("B[m,n] = A[m,k] * W[k,n] {M=8,K=8,N=8}")
	back, err := Parse(orig.String())
	if err != nil {
		t.Fatalf("re-parse of %q: %v", orig.String(), err)
	}
	if back.MACs() != orig.MACs() || back.AlgorithmicMinElements() != orig.AlgorithmicMinElements() {
		t.Fatal("round trip changed the workload")
	}
}

// FuzzEinsumParse feeds arbitrary text to the parser, which reads
// untrusted input from every served einsum and chain request. Any input
// it accepts (Parse validates) must re-parse from its String() rendering
// to the same rendering, MAC count and algorithmic minimum; a shape
// product that overflows must overflow again. The seed corpus under
// testdata/fuzz/FuzzEinsumParse holds the GEMM, strided/dilated conv and
// grouped-BMM strings of the tests above and a non-ASCII rank name, which
// the parser once accepted but could not re-read from its rendering.
func FuzzEinsumParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		e, err := Parse(s)
		if err != nil {
			return
		}
		str := e.String()
		back, err := Parse(str)
		if err != nil {
			t.Fatalf("%q parsed, but its rendering %q does not: %v", s, str, err)
		}
		if got := back.String(); got != str {
			t.Fatalf("%q renders %q, which re-parses to %q", s, str, got)
		}
		if m, bm := sizes(e), sizes(back); m != bm {
			t.Fatalf("%q: MACs and algorithmic minimum %v, after re-parsing %q %v", s, m, str, bm)
		}
	})
}

// sizes returns e's MAC count and algorithmic minimum in elements, or
// overflow set when a shape product does not fit (shape.Product panics).
func sizes(e *Einsum) (out struct {
	macs, algoMin int64
	overflow      bool
}) {
	defer func() {
		if recover() != nil {
			out.overflow = true
		}
	}()
	out.macs = e.MACs()
	out.algoMin = e.AlgorithmicMinElements()
	return out
}
