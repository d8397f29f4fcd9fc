package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/bench"
	"repro/bench/internal/stat"
)

// loadSet reads the valid run records under dir (dir/*/run.json), oldest
// first, and reports how many invalid ones it left out.
func loadSet(dir string) (recs []*record, invalid int, err error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*", "run.json"))
	if err != nil {
		return nil, 0, err
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, err
		}
		rec := &record{}
		if err := json.Unmarshal(data, rec); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Result == nil || !rec.Valid {
			invalid++
			continue
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return nil, invalid, fmt.Errorf("no valid run records under %s", dir)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Started.Before(recs[j].Started) })
	return recs, invalid, nil
}

// values collects metric m of every record of workload w, in run order.
func values(recs []*record, w string, m bench.Metric) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Workload != w {
			continue
		}
		if v, ok := value(r, m); ok {
			out = append(out, v)
		}
	}
	return out
}

// flagged reports whether set B's median differs from set A's by more
// than the metric's bound (as a share of A's median) and by more than A's
// interquartile range: the only differences compare calls a change.
func flagged(a, b []float64, bound float64) bool {
	q1, medA, q3 := stat.Quartiles(a)
	d := math.Abs(stat.Median(b) - medA)
	return d > bound*math.Abs(medA) && d > q3-q1
}

// winRate pairs the i-th runs of both sets and returns how many pairs B
// wins, ties excluded, and how many pairs were decided.
func winRate(a, b []float64, better string) (wins, decided int) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == b[i] {
			continue
		}
		decided++
		if (better == "lower") == (b[i] < a[i]) {
			wins++
		}
	}
	return wins, decided
}

// compareCmd implements "orobench compare SET_A SET_B": for every
// workload and metric both sets recorded, it prints each set's median,
// quartiles and sample count, B's change, B's pairwise win rate, and a
// CHANGED flag. It exits 1 when any pair is flagged.
func compareCmd(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: orobench compare SET_A SET_B")
		return 2
	}
	a, badA, err := loadSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "orobench:", err)
		return 2
	}
	b, badB, err := loadSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "orobench:", err)
		return 2
	}
	fmt.Printf("A: %d valid runs (%d invalid left out); B: %d valid runs (%d invalid left out)\n", len(a), badA, len(b), badB)
	fmt.Printf("%-13s %-28s %36s %36s %8s %7s\n", "workload", "metric", "A median [q1, q3] n", "B median [q1, q3] n", "change", "B wins")
	changed := 0
	for _, w := range bench.Workloads {
		for _, m := range bench.Metrics {
			va, vb := values(a, w.Name, m), values(b, w.Name, m)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa1, ma, qa3 := stat.Quartiles(va)
			qb1, mb, qb3 := stat.Quartiles(vb)
			change := "-"
			if ma != 0 {
				change = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/math.Abs(ma))
			}
			wins, decided := winRate(va, vb, m.Better)
			flag := ""
			if flagged(va, vb, m.Bound) {
				flag = "CHANGED"
				changed++
			}
			fmt.Printf("%-13s %-28s %36s %36s %8s %3d/%-3d %s\n", w.Name, m.Name,
				summarize(ma, qa1, qa3, len(va)), summarize(mb, qb1, qb3, len(vb)), change, wins, decided, flag)
		}
	}
	fmt.Printf("%d (workload, metric) pairs changed beyond their bound and A's spread\n", changed)
	if changed > 0 {
		return 1
	}
	return 0
}

func summarize(med, q1, q3 float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", med, q1, q3, n)
}
