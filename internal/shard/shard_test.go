package shard

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/pareto"
)

func TestParsePlan(t *testing.T) {
	cases := []struct {
		in   string
		want Plan
		ok   bool
	}{
		{"1/4", Plan{0, 4}, true},
		{"4/4", Plan{3, 4}, true},
		{"1/1", Plan{0, 1}, true},
		{" 2 / 3 ", Plan{1, 3}, true},
		{"0/4", Plan{}, false},
		{"5/4", Plan{}, false},
		{"4", Plan{}, false},
		{"a/4", Plan{}, false},
		{"1/0", Plan{}, false},
		{"-1/4", Plan{}, false},
	}
	for _, c := range cases {
		got, err := ParsePlan(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParsePlan(%q) error = %v, want ok=%t", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParsePlan(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

func TestPlanSliceCoversExactly(t *testing.T) {
	for _, items := range []int64{0, 1, 7, 8, 100, 101, 1023} {
		for _, n := range []int{1, 2, 3, 8, 16} {
			var next int64
			for k := 0; k < n; k++ {
				lo, hi := (Plan{k, n}).Slice(items)
				if lo != next {
					t.Fatalf("items=%d n=%d shard %d: lo=%d, want %d (gap or overlap)", items, n, k, lo, next)
				}
				if hi < lo {
					t.Fatalf("items=%d n=%d shard %d: inverted range [%d, %d)", items, n, k, lo, hi)
				}
				if sz := hi - lo; sz > items/int64(n)+1 {
					t.Fatalf("items=%d n=%d shard %d: unbalanced size %d", items, n, k, sz)
				}
				next = hi
			}
			if next != items {
				t.Fatalf("items=%d n=%d: shards cover through %d", items, n, next)
			}
		}
	}
}

func TestDigestStable(t *testing.T) {
	a, b := Digest("x"), Digest("x")
	if a != b {
		t.Fatalf("Digest not deterministic: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("Digest length %d, want 64 hex chars", len(a))
	}
	if Digest("x") == Digest("y") {
		t.Fatal("distinct inputs collided")
	}
}

func testManifest() Manifest {
	return Manifest{
		FormatVersion:    FormatVersion,
		Engine:           Engine,
		Kind:             KindBound,
		Workload:         "test",
		WorkloadDigest:   Digest("workload"),
		OptionsDigest:    Digest("options"),
		ShardIndex:       0,
		ShardCount:       2,
		Items:            10,
		RangeLo:          0,
		RangeHi:          5,
		CompletedThrough: 5,
	}
}

func TestManifestValidate(t *testing.T) {
	m := testManifest()
	if err := m.Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
	breakers := map[string]func(*Manifest){
		"format version": func(m *Manifest) { m.FormatVersion = 99 },
		"engine":         func(m *Manifest) { m.Engine = "" },
		"kind":           func(m *Manifest) { m.Kind = "frob" },
		"digest":         func(m *Manifest) { m.WorkloadDigest = "" },
		"plan":           func(m *Manifest) { m.ShardIndex = 2 },
		"range":          func(m *Manifest) { m.RangeHi = 7 },
		"completed":      func(m *Manifest) { m.CompletedThrough = 6 },
	}
	for name, breakIt := range breakers {
		m := testManifest()
		breakIt(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("broken manifest (%s) accepted", name)
		}
	}
}

func TestManifestCompatibility(t *testing.T) {
	a := testManifest()
	b := testManifest()
	b.ShardIndex, b.RangeLo, b.RangeHi, b.CompletedThrough = 1, 5, 10, 10
	if err := a.CompatibleWith(&b); err != nil {
		t.Fatalf("sibling shards reported incompatible: %v", err)
	}
	for name, breakIt := range map[string]func(*Manifest){
		"engine":   func(m *Manifest) { m.Engine = "orojenesis/0" },
		"kind":     func(m *Manifest) { m.Kind = KindFusionTiled },
		"workload": func(m *Manifest) { m.WorkloadDigest = Digest("other") },
		"options":  func(m *Manifest) { m.OptionsDigest = Digest("other") },
		"items":    func(m *Manifest) { m.Items = 11 },
		"count":    func(m *Manifest) { m.ShardCount = 3 },
	} {
		b := testManifest()
		breakIt(&b)
		if err := a.CompatibleWith(&b); err == nil {
			t.Errorf("incompatible manifests (%s differ) accepted", name)
		}
	}
}

// TestLegacyFormatVersionStillReads pins backward compatibility with
// format-version-1 partials (pre-spec layout): they validate, merge with
// each other, and merge with an upgraded version-2 sibling.
func TestLegacyFormatVersionStillReads(t *testing.T) {
	mk := func(k int, version int) *Partial {
		m := testManifest()
		m.FormatVersion = version
		m.ShardIndex, m.ShardCount = k, 2
		m.RangeLo, m.RangeHi = (Plan{k, 2}).Slice(m.Items)
		m.CompletedThrough = m.RangeHi
		if version >= 2 {
			m.Spec = []byte(`{"kind":"bound"}`)
		}
		return &Partial{Manifest: m, Curve: pareto.FromPoints([]pareto.Point{{BufferBytes: 1, AccessBytes: 1}})}
	}
	v1a, v1b := mk(0, 1), mk(1, 1)
	if err := v1a.Manifest.Validate(); err != nil {
		t.Fatalf("version-1 manifest rejected: %v", err)
	}
	if _, err := Merge(v1a, v1b); err != nil {
		t.Fatalf("version-1 partials refuse to merge: %v", err)
	}
	if _, err := Merge(v1a, mk(1, 2)); err != nil {
		t.Fatalf("mixed version-1/version-2 partials refuse to merge: %v", err)
	}
	future := mk(0, 1)
	future.Manifest.FormatVersion = FormatVersion + 1
	if err := future.Manifest.Validate(); err == nil {
		t.Fatal("future format version accepted")
	}
}

func TestPartialRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.json")
	curve := pareto.FromPoints([]pareto.Point{{BufferBytes: 4, AccessBytes: 100}, {BufferBytes: 8, AccessBytes: 50}})
	curve.AlgoMinBytes = 40
	curve.TotalOperandBytes = 60
	p := &Partial{Manifest: testManifest(), Curve: curve}
	if err := writePartial(osFS{}, path, p); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPartial(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Manifest, p.Manifest) {
		t.Fatalf("manifest round trip: got %+v, want %+v", got.Manifest, p.Manifest)
	}
	if got.Curve.Len() != 2 || got.Curve.AlgoMinBytes != 40 || got.Curve.TotalOperandBytes != 60 {
		t.Fatalf("curve round trip: got %v (annotations %d, %d)", got.Curve, got.Curve.AlgoMinBytes, got.Curve.TotalOperandBytes)
	}
	// No temp files may linger after a successful atomic write.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries after write, want only the partial", len(entries))
	}
}

func TestReadPartialRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.json")
	if err := os.WriteFile(path, []byte("{\"manifest\":{}}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPartial(nil, path); err == nil {
		t.Fatal("structurally invalid partial accepted")
	}
}

func TestMergeRefusals(t *testing.T) {
	mkPartial := func(k, n int, mutate func(*Manifest)) *Partial {
		m := testManifest()
		m.ShardIndex, m.ShardCount = k, n
		m.RangeLo, m.RangeHi = (Plan{k, n}).Slice(m.Items)
		m.CompletedThrough = m.RangeHi
		if mutate != nil {
			mutate(&m)
		}
		return &Partial{Manifest: m, Curve: pareto.FromPoints([]pareto.Point{{BufferBytes: 1, AccessBytes: 1}})}
	}

	if _, err := Merge(); err == nil {
		t.Error("empty merge accepted")
	}
	if _, err := Merge(mkPartial(0, 2, nil)); err == nil || !strings.Contains(err.Error(), "plan has 2 shards") {
		t.Errorf("missing shard accepted or unclear error: %v", err)
	}
	if _, err := Merge(mkPartial(0, 2, nil), mkPartial(0, 2, nil)); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Errorf("duplicate shard accepted or unclear error: %v", err)
	}
	other := mkPartial(1, 2, func(m *Manifest) { m.WorkloadDigest = Digest("other workload") })
	if _, err := Merge(mkPartial(0, 2, nil), other); err == nil || !strings.Contains(err.Error(), "workload digest") {
		t.Errorf("workload-digest mismatch accepted or unclear error: %v", err)
	}
	otherOpts := mkPartial(1, 2, func(m *Manifest) { m.OptionsDigest = Digest("other options") })
	if _, err := Merge(mkPartial(0, 2, nil), otherOpts); err == nil || !strings.Contains(err.Error(), "options digest") {
		t.Errorf("options-digest mismatch accepted or unclear error: %v", err)
	}
	incomplete := mkPartial(1, 2, func(m *Manifest) { m.CompletedThrough = m.RangeLo })
	if _, err := Merge(mkPartial(0, 2, nil), incomplete); err == nil || !strings.Contains(err.Error(), "incomplete") {
		t.Errorf("incomplete shard accepted or unclear error: %v", err)
	}
}
