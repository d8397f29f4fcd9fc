package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/bench"
	"repro/bench/internal/span"
)

// record is one workload run's record, written as run.json.
type record struct {
	Seconds    int       `json:"seconds"`
	Seed       uint64    `json:"seed"`
	Trace      bool      `json:"trace"`
	Started    time.Time `json:"started"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	NProc      int       `json:"nproc"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	// Valid is false when the run broke a validity rule (see Invalid);
	// compare leaves such runs out.
	Valid bool `json:"valid"`
	*bench.Result
}

// runParent runs the selected workloads, each in a child process, and
// returns the exit code.
func runParent(ctx context.Context, cfg runConfig, name string) int {
	ws := bench.Workloads
	if name != "" {
		w, ok := bench.Find(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "orobench: unknown workload %q\n", name)
			return 2
		}
		ws = []bench.Workload{w}
	}
	// This process is idle while a child runs, so it measures the
	// children's references: outside their heaps and Go runtimes.
	h, err := bench.NewHostRef()
	if err != nil {
		fmt.Fprintln(os.Stderr, "orobench: starting the reference:", err)
		return 1
	}
	defer h.Close()
	code := 0
	var recs []*record
	for _, w := range ws {
		rec, err := runWorkload(ctx, cfg, w, h)
		if err != nil {
			fmt.Fprintf(os.Stderr, "orobench: %s: %v\n", w.Name, err)
			return 1
		}
		printRecord(rec)
		if rec.Mismatches > 0 {
			code = 1
		}
		recs = append(recs, rec)
	}
	if err := printSummary(recs, cfg.trace, name == ""); err != nil {
		fmt.Fprintln(os.Stderr, "orobench:", err)
		return 1
	}
	return code
}

// runWorkload runs w in a child process with its own scratch directory,
// answering the child's reference requests with h, adds the child's peak
// RSS, and writes the run record.
func runWorkload(ctx context.Context, cfg runConfig, w bench.Workload, h *bench.HostRef) (*record, error) {
	started := time.Now().UTC()
	runDir := filepath.Join(cfg.out, fmt.Sprintf("%s-%s-s%d", started.Format("20060102T150405.000000"), w.Name, cfg.seed))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.scratch, w.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", w.Name, "-seed", strconv.FormatUint(cfg.seed, 10),
		"-seconds", strconv.Itoa(cfg.seconds), "-trace", strconv.Itoa(btoi(cfg.trace)),
		"-dir", scratch, "-trace-file", filepath.Join(runDir, "trace.json")}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.SysProcAttr = childAttr()
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := runServingRefs(cmd, h); err != nil {
		return nil, err
	}
	var res bench.Result
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child result: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.Metrics["max_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	rec := &record{
		Seconds: cfg.seconds, Seed: cfg.seed, Trace: cfg.trace, Started: started,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), GoVersion: runtime.Version(),
		Commit: gitCommit(), Valid: len(res.Invalid) == 0, Result: &res,
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(filepath.Join(runDir, "run.json"), append(data, '\n'), 0o644)
}

// runServingRefs starts cmd with two pipes as descriptors 3 and 4, answers
// the reference requests the child writes to 3 with measurements by h
// written to 4, and waits for the child to exit.
func runServingRefs(cmd *exec.Cmd, h *bench.HostRef) error {
	reqR, reqW, err := os.Pipe()
	if err != nil {
		return err
	}
	defer reqR.Close()
	repR, repW, err := os.Pipe()
	if err != nil {
		reqW.Close()
		return err
	}
	defer repW.Close()
	cmd.ExtraFiles = []*os.File{reqW, repR}
	err = cmd.Start()
	// The child holds its own copies; closing ours lets the child's exit
	// end the request stream.
	reqW.Close()
	repR.Close()
	if err != nil {
		return fmt.Errorf("child process: %w", err)
	}
	served := make(chan error, 1)
	go func() { served <- bench.ServeRefs(h, reqR, repW) }()
	err = cmd.Wait()
	serr := <-served
	if err != nil {
		return fmt.Errorf("child process: %w", err)
	}
	return serr
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// value returns metric m of rec: layer metrics from a traced run's
// layers, the rest from its metrics.
func value(rec *record, m bench.Metric) (float64, bool) {
	src := rec.Metrics
	if m.Kind == bench.Layer || m.Kind == bench.LayerDetail {
		if !rec.Trace {
			return 0, false
		}
		src = rec.Layers
	}
	v, ok := src[m.Name]
	return v, ok
}

// printRecord prints every metric of rec as "workload metric value unit",
// then its sample counts, notes and validity.
func printRecord(rec *record) {
	for _, m := range bench.Metrics {
		if v, ok := value(rec, m); ok {
			fmt.Printf("%s %s %s %s\n", rec.Workload, m.Name, strconv.FormatFloat(v, 'g', -1, 64), m.Unit)
		}
	}
	for _, k := range sortedKeys(rec.Samples) {
		fmt.Printf("%s samples.%s %d count\n", rec.Workload, k, rec.Samples[k])
	}
	for _, k := range sortedKeys(rec.Notes) {
		fmt.Printf("%s note.%s %s\n", rec.Workload, k, rec.Notes[k])
	}
	fmt.Printf("%s attempted %d failed %d mismatches %d valid %t %s\n",
		rec.Workload, rec.Attempted, rec.Failed, rec.Mismatches, rec.Valid, strings.Join(rec.Invalid, "; "))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printSummary prints the JSON summary: for an untraced run every
// end-to-end metric, for a traced run every per-layer metric. With
// several workloads the names are prefixed "<workload>/".
func printSummary(recs []*record, traced, prefix bool) error {
	kind := bench.EndToEnd
	if traced {
		kind = bench.Layer
	}
	s := summary{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, rec := range recs {
		s.Correct = s.Correct && rec.Mismatches == 0
		s.Attempted += rec.Attempted
		s.Failed += rec.Failed
		for _, m := range bench.Metrics {
			if m.Kind != kind {
				continue
			}
			v, ok := value(rec, m)
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%s: no value for %s", rec.Workload, m.Name)
			}
			key := m.Name
			if prefix {
				key = rec.Workload + "/" + key
			}
			s.Metrics[key] = jsonMetric{v, m.Unit}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// gitCommit reads the commit checked out in the working directory, or
// "unknown" outside a git work tree.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}

// writeTrace writes a traced run's layer metrics and spans to path.
func writeTrace(path string, res *bench.Result, tr *span.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload string             `json:"workload"`
		Layers   map[string]float64 `json:"layers"`
		Spans    []span.Span        `json:"spans"`
	}{res.Workload, res.Layers, tr.Spans()})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
