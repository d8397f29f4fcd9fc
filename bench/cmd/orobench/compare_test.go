package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/bench"
)

func TestFlaggedNeedsBoundAndSpread(t *testing.T) {
	a := []float64{1.00, 1.01, 0.99, 1.02, 0.98}
	cases := []struct {
		name  string
		b     []float64
		bound float64
		want  bool
	}{
		{"within bound", []float64{1.05, 1.04, 1.06, 1.05, 1.05}, 0.10, false},
		{"beyond bound and spread", []float64{1.2, 1.21, 1.19, 1.2, 1.22}, 0.10, true},
		{"faster also counts", []float64{0.8, 0.81, 0.79, 0.8, 0.8}, 0.10, true},
		{"zero bound, identical counts", []float64{1.00, 1.01, 0.99, 1.02, 0.98}, 0, false},
	}
	for _, c := range cases {
		if got := flagged(a, c.b, c.bound); got != c.want {
			t.Errorf("%s: flagged = %v, want %v", c.name, got, c.want)
		}
	}
	// A's own spread wider than the difference: not flagged.
	noisy := []float64{0.7, 1.3, 1.0, 0.8, 1.2}
	if flagged(noisy, []float64{1.15, 1.15, 1.15}, 0.10) {
		t.Error("a change inside set A's interquartile range was flagged")
	}
}

func TestWinRateSkipsTies(t *testing.T) {
	wins, decided := winRate([]float64{1, 2, 3, 4}, []float64{0.5, 2, 3.5, 3}, "lower")
	if wins != 2 || decided != 3 {
		t.Errorf("lower-is-better: %d/%d, want 2/3", wins, decided)
	}
	wins, decided = winRate([]float64{1, 2}, []float64{2, 1, 5}, "higher")
	if wins != 1 || decided != 2 {
		t.Errorf("higher-is-better: %d/%d, want 1/2", wins, decided)
	}
}

func TestLoadSetSkipsInvalidRuns(t *testing.T) {
	dir := t.TempDir()
	write := func(sub string, valid bool, at time.Time, pass float64) {
		rec := record{Started: at, Valid: valid, Result: &bench.Result{
			Workload: "derive-conv", Metrics: map[string]float64{"pass_s": pass},
		}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, sub, "run.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	write("b", true, t0.Add(time.Minute), 2)
	write("a", true, t0, 1)
	write("c", false, t0.Add(2*time.Minute), 99)
	recs, invalid, err := loadSet(dir)
	if err != nil {
		t.Fatal(err)
	}
	if invalid != 1 || len(recs) != 2 {
		t.Fatalf("loaded %d records, %d invalid; want 2 and 1", len(recs), invalid)
	}
	m := bench.Metric{Name: "pass_s", Unit: "s", Better: "lower", Kind: bench.EndToEnd}
	if got := values(recs, "derive-conv", m); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("values in run order = %v, want [1 2]", got)
	}
}
