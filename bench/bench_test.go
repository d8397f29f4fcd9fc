package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/bench/internal/span"
	"repro/internal/pareto"
	"repro/internal/workload"
)

func TestCatalogAndTrafficAreSeedDeterministic(t *testing.T) {
	gen := func(seed uint64) ([]catalogEntry, []request) {
		cat, err := catalog()
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := newTraffic(seed, cat).draw(rng(seed, streamOpen), 2000)
		if err != nil {
			t.Fatal(err)
		}
		return cat, reqs
	}
	bodies := func(cat []catalogEntry, reqs []request) [][]byte {
		var out [][]byte
		for _, e := range cat {
			out = append(out, e.body)
		}
		for _, q := range reqs {
			if q.cat >= 0 {
				out = append(out, cat[q.cat].body)
			} else {
				out = append(out, q.miss.body)
			}
		}
		return out
	}
	a, b, c := bodies(gen(7)), bodies(gen(7)), bodies(gen(8))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed generated different catalogs or traffic")
	}
	cat, reqs := gen(7)
	if !reflect.DeepEqual(a[:len(cat)], c[:len(cat)]) {
		t.Fatal("the catalog depends on the seed; it is the service's fixed content")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical traffic")
	}
	if len(cat) <= 128 {
		t.Errorf("catalog of %d specs fits the server's 128-entry memory LRU; the disk tier would see no traffic", len(cat))
	}

	digests := map[string]bool{}
	for _, e := range cat {
		if digests[e.digest] {
			t.Fatalf("catalog repeats digest %s", e.digest)
		}
		digests[e.digest] = true
	}
	var misses int
	for _, q := range reqs {
		if q.cat < 0 {
			misses++
			if digests[q.miss.digest] {
				t.Fatalf("never-seen shape %s is in the catalog or was drawn twice", q.miss.body)
			}
			digests[q.miss.digest] = true
		}
	}
	if misses != 20 {
		t.Errorf("%d never-seen shapes in 2000 requests, want 20", misses)
	}
}

func TestGoldenDetectsPerturbedCurve(t *testing.T) {
	g, err := LoadGolden()
	if err != nil {
		t.Fatal(err)
	}
	s, err := specByID("derive-conv/conv-R1S1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Spec.Run(context.Background(), workload.Exec{})
	if err != nil {
		t.Fatal(err)
	}
	c := res.Curve
	if !g.Check(s.ID, c) {
		t.Fatalf("%s does not match its golden digest", s.ID)
	}
	pts := append([]pareto.Point(nil), c.Points()...)
	pts[len(pts)/2].AccessBytes++ // one access more at one capacity
	moved := pareto.FromPoints(pts)
	moved.AlgoMinBytes, moved.TotalOperandBytes = c.AlgoMinBytes, c.TotalOperandBytes
	if g.Check(s.ID, moved) {
		t.Error("a curve with one perturbed point passed the golden check")
	}
	relabeled := pareto.FromPoints(c.Points())
	relabeled.AlgoMinBytes, relabeled.TotalOperandBytes = c.AlgoMinBytes+1, c.TotalOperandBytes
	if g.Check(s.ID, relabeled) {
		t.Error("a curve with a different annotation passed the golden check")
	}
	if g.Check("derive-conv/no-such-spec", c) {
		t.Error("an id missing from the golden table passed")
	}
}

// TestGoldenCoversEveryFixedSpec keeps testdata/golden.json in step with
// the fixed spec lists.
func TestGoldenCoversEveryFixedSpec(t *testing.T) {
	g, err := LoadGolden()
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := fleetSpecs()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, set := range [][]namedSpec{deriveConvSpecs(), deriveMixedSpecs(), fleet} {
		for _, s := range set {
			want[s.ID] = true
			if _, ok := g[s.ID]; !ok {
				t.Errorf("golden table has no entry for %s", s.ID)
			}
		}
	}
	for id := range g {
		if !want[id] {
			t.Errorf("golden table entry %s matches no fixed spec", id)
		}
	}
}

// benchmarkFile is the subset of BENCHMARK.json the table must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatchesMetricTable checks the repository's
// BENCHMARK.json declares exactly this package's workloads, end-to-end
// metrics (with their bounds) and layer metrics.
func TestBenchmarkFileMatchesMetricTable(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found beside the bench module:", err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(f.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: file has %+v, table has %s: %s", i, f.Workloads[i], w.Name, w.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var e2e, layers []Metric
	for _, m := range Metrics {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
			t.Errorf("metric %q (unit %q) breaks the naming rules", m.Name, m.Unit)
		}
		switch m.Kind {
		case EndToEnd:
			e2e = append(e2e, m)
		case Layer:
			layers = append(layers, m)
		}
	}
	if len(f.EndToEnd) != len(e2e) || len(f.PerLayer) != len(layers) {
		t.Fatalf("file declares %d end-to-end and %d layer metrics, the table %d and %d",
			len(f.EndToEnd), len(f.PerLayer), len(e2e), len(layers))
	}
	for i, m := range e2e {
		got := f.EndToEnd[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better || got.Bound != m.Bound {
			t.Errorf("end-to-end %d: file %+v, table %+v", i, got, m)
		}
	}
	for i, m := range layers {
		got := f.PerLayer[i]
		if got.Name != m.Name || got.Unit != m.Unit || got.Better != m.Better {
			t.Errorf("per-layer %d: file %+v, table %+v", i, got, m)
		}
	}
}

// TestSmokeEveryWorkload runs every workload traced, at smoke-test size,
// for about a second: every curve must check, every end-to-end metric must
// be positive, and every layer metric must be present. Timed layer metrics
// must be measured on every workload: non-zero (the two that are
// differences of pass times can come out negative on a noisy host).
func TestSmokeEveryWorkload(t *testing.T) {
	timed := map[string]bool{"ns": true, "us": true, "ms": true, "s": true}
	ref := startRefServer(t)
	for _, w := range Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r, err := w.Run(context.Background(), Options{
				Seed: 1, Duration: time.Second, Ref: ref, Tracer: span.New(), Short: true, Dir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed != 0 || r.Mismatches != 0 || r.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, mismatches %d", r.Attempted, r.Failed, r.Mismatches)
			}
			for _, m := range Metrics {
				switch {
				case m.Kind == EndToEnd && !(r.Metrics[m.Name] > 0):
					t.Errorf("end-to-end %s = %v, want > 0", m.Name, r.Metrics[m.Name])
				case m.Kind == Layer && timed[m.Unit] && r.Layers[m.Name] == 0:
					t.Errorf("timed layer metric %s was not measured", m.Name)
				}
				if _, ok := r.Layers[m.Name]; m.Kind == Layer && !ok {
					t.Errorf("layer metric %s missing", m.Name)
				}
			}
		})
	}
}
