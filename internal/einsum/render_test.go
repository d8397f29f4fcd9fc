package einsum

import "testing"

// TestRenderingPinned pins String and Canonical byte for byte. Canonical
// feeds every workload digest, so any change to either rendering would
// silently re-key the curve store, the spool and every shard manifest;
// the expected strings were recorded before the renderer was last
// rewritten.
func TestRenderingPinned(t *testing.T) {
	want := []struct{ str, canonical string }{
		{"B[p,q,n] = A[2p+2r,2q+2s,c] * W[c,n,r,s] {P=7 Q=5 N=16 C=8 R=3 S=3}",
			"einsum{name=conv_s2d2 es=2 B[p,q,n] = A[2p+2r,2q+2s,c] * W[c,n,r,s] {P=7 Q=5 N=16 C=8 R=3 S=3}}"},
		{"B[h,m,n] = A[h,m,k] * W[h/4,k,n] {H=8 M=64 K=128 N=64}",
			"einsum{name=gqa es=2 B[h,m,n] = A[h,m,k] * W[h/4,k,n] {H=8 M=64 K=128 N=64}}"},
		{"Out[mb,12hh] = In[3mb+kx+10ä,hh/6] * w2[kx] * Z[hh] {kX=3 Mb=9223372036854775807 Ä=1 hh=12}",
			"einsum{name=Mixed-Case einsum es=1 Out[mb,12hh] = In[3mb+kx+10ä,hh/6] * w2[kx] * Z[hh] {kX=3 Mb=9223372036854775807 Ä=1 hh=12}}"},
		{"Y[zz] = X[az_az+zz] {AZ_az=5 Zz=6}",
			"einsum{name=edges es=2 Y[zz] = X[az_az+zz] {AZ_az=5 Zz=6}}"},
		{"O[a] = I[2a+2b] {A=1 B=2}",
			"einsum{name=o es=4 O[a] = I[2a+2b] {A=1 B=2}}"},
	}
	cases := renderCases()
	if len(cases) != len(want) {
		t.Fatalf("%d cases, %d expectations", len(cases), len(want))
	}
	for i, e := range cases {
		if err := e.Validate(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := e.String(); got != want[i].str {
			t.Errorf("case %d String:\n got %q\nwant %q", i, got, want[i].str)
		}
		if got := e.Canonical(); got != want[i].canonical {
			t.Errorf("case %d Canonical:\n got %q\nwant %q", i, got, want[i].canonical)
		}
	}
}

// renderCases are Einsums whose String and Canonical renderings are
// pinned by TestRenderingPinned: every projection form the notation
// distinguishes, in shapes the frozen workload identities do not reach.
func renderCases() []*Einsum {
	return []*Einsum{
		// Strided and dilated convolution: 2p+2r.
		Conv2D("conv_s2d2", ConvConfig{P: 7, Q: 5, N: 16, C: 8, R: 3, S: 3, T: 2, D: 2}),
		// Grouped-query attention: a grouped dim h/4.
		GroupedBMM("gqa", 8, 2, 64, 128, 64),
		{
			// Mixed-case and non-ASCII rank names, a three-term dim with
			// coefficients other than 1, three inputs, a one-byte element,
			// and rank order unlike tensor order.
			Name: "Mixed-Case einsum",
			Ranks: []Rank{
				{Name: "kX", Shape: 3},
				{Name: "Mb", Shape: 9223372036854775807},
				{Name: "Ä", Shape: 1},
				{Name: "hh", Shape: 12},
			},
			Tensors: []Tensor{
				{Name: "In", Dims: []Dim{
					{Terms: []Term{{Rank: "Mb", Coeff: 3}, {Rank: "kX", Coeff: 1}, {Rank: "Ä", Coeff: 10}}},
					{Terms: []Term{{Rank: "hh", Coeff: 1}}, GroupDiv: 6},
				}},
				{Name: "w2", Dims: []Dim{{Terms: []Term{{Rank: "kX", Coeff: 1}}}}},
				{Name: "Z", Dims: []Dim{{Terms: []Term{{Rank: "hh", Coeff: 1}}, GroupDiv: 1}}},
				{Name: "Out", Dims: []Dim{
					{Terms: []Term{{Rank: "Mb", Coeff: 1}}},
					{Terms: []Term{{Rank: "hh", Coeff: 12}}},
				}, Output: true},
			},
			ElementSize: 1,
		},
		{
			// Rank names at both ends of the upper- and lower-case ranges,
			// with an underscore.
			Name:  "edges",
			Ranks: []Rank{{Name: "AZ_az", Shape: 5}, {Name: "Zz", Shape: 6}},
			Tensors: []Tensor{
				{Name: "X", Dims: []Dim{{Terms: []Term{{Rank: "AZ_az", Coeff: 1}, {Rank: "Zz", Coeff: 1}}}}},
				{Name: "Y", Dims: []Dim{{Terms: []Term{{Rank: "Zz", Coeff: 1}}}}, Output: true},
			},
			ElementSize: 2,
		},
		{
			// A scalar-per-rank output listed first, and a four-byte element.
			Name:  "o",
			Ranks: []Rank{{Name: "A", Shape: 1}, {Name: "B", Shape: 2}},
			Tensors: []Tensor{
				{Name: "O", Dims: []Dim{{Terms: []Term{{Rank: "A", Coeff: 1}}}}, Output: true},
				{Name: "I", Dims: []Dim{{Terms: []Term{{Rank: "A", Coeff: 2}, {Rank: "B", Coeff: 2}}}}},
			},
			ElementSize: 4,
		},
	}
}
