package bound

import (
	"context"
	"encoding/json"
	"testing"

	"repro/internal/einsum"
	"repro/internal/pareto"
)

// TestDeriveRangeCoverParity pins the sharding contract: partial curves
// over any disjoint cover of [0, Space) union to the byte-identical
// full-range curve, annotations included.
// The BMM's H and the imperfect GEMM's repeated outers put dominated
// tilings in ranges whose dominating tiling lies in another range.
func TestDeriveRangeCoverParity(t *testing.T) {
	for _, e := range []*einsum.Einsum{einsum.GEMM("g", 64, 48, 80), einsum.BMM("b", 6, 16, 12, 8)} {
		t.Run(e.Name, func(t *testing.T) { checkRangeCoverParity(t, e) })
	}
}

func checkRangeCoverParity(t *testing.T, e *einsum.Einsum) {
	for _, opts := range []Options{{}, {ImperfectExtra: 2}, {ChargeSpills: true}} {
		space, err := Space(e, opts)
		if err != nil {
			t.Fatal(err)
		}
		if space < 4 {
			t.Fatalf("space = %d, too small to split", space)
		}
		full := Derive(e, opts)
		want, err := json.Marshal(full.Curve)
		if err != nil {
			t.Fatal(err)
		}

		cuts := []int64{0, space / 5, space / 2, space - 1, space}
		var parts []*pareto.Curve
		var evaluated int64
		for i := 0; i+1 < len(cuts); i++ {
			r, err := DeriveRange(context.Background(), e, opts, cuts[i], cuts[i], cuts[i+1])
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, r.Curve)
			evaluated += r.Stats.MappingsEvaluated
		}
		merged := pareto.Union(parts...)
		merged.AlgoMinBytes = parts[0].AlgoMinBytes
		merged.TotalOperandBytes = parts[0].TotalOperandBytes
		got, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("opts %+v: union of range curves differs from full derive\n got %s\nwant %s", opts, got, want)
		}
		if evaluated != full.Stats.MappingsEvaluated {
			t.Fatalf("opts %+v: ranges evaluated %d mappings, full derive %d", opts, evaluated, full.Stats.MappingsEvaluated)
		}
	}
}

// TestDeriveRangeEmptyStillAnnotated: empty ranges are the "more shards
// than items" case and must carry workload annotations for the merge.
func TestDeriveRangeEmptyStillAnnotated(t *testing.T) {
	e := einsum.GEMM("g", 8, 8, 8)
	r, err := DeriveRange(context.Background(), e, Options{}, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Curve.Empty() {
		t.Fatalf("empty range produced %d points", r.Curve.Len())
	}
	if r.Curve.AlgoMinBytes != e.AlgorithmicMinBytes() || r.Curve.TotalOperandBytes != e.TotalOperandBytes() {
		t.Fatalf("empty-range curve missing annotations: %d, %d", r.Curve.AlgoMinBytes, r.Curve.TotalOperandBytes)
	}
}

func TestDeriveRangePanicsOutOfBounds(t *testing.T) {
	e := einsum.GEMM("g", 8, 8, 8)
	space, err := Space(e, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// {floor, lo, hi}: a range outside the space, an inverted range, a
	// negative floor and a floor above the range start.
	for _, r := range [][3]int64{{0, -1, 2}, {0, 0, space + 1}, {0, 5, 4}, {-1, 0, 2}, {3, 2, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DeriveRange[%d, %d) from floor %d did not panic", r[1], r[2], r[0])
				}
			}()
			DeriveRange(context.Background(), e, Options{}, r[0], r[1], r[2])
		}()
	}
}

func TestOptionsCanonicalExcludesWorkers(t *testing.T) {
	a := Options{Workers: 1, ImperfectExtra: 3}
	b := Options{Workers: 16, ImperfectExtra: 3}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("worker count leaked into canonical options: %q vs %q", a.Canonical(), b.Canonical())
	}
	c := Options{ImperfectExtra: 4}
	if a.Canonical() == c.Canonical() {
		t.Fatal("result-affecting option missing from canonical encoding")
	}
	d := Options{ChargeSpills: true}
	if (Options{}).Canonical() == d.Canonical() {
		t.Fatal("ChargeSpills missing from canonical encoding")
	}
}
