// Command orobench is the repository's benchmark. It runs four workloads
// (derive-conv, derive-mixed, serve-zipf, shard-fleet), each in its own
// child process so heaps and peak RSS stay separate; prints every metric
// as "workload metric value unit"; writes a run record per workload; and
// checks every curve it receives against golden or in-process curves.
//
// Usage:
//
//	orobench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-out DIR]
//	orobench compare SET_A SET_B
//	orobench -write-golden [-golden FILE]
//
// With -workload, the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics, or with -trace 1 the per-layer ones. A traced run also writes
// trace.json (spans and layer metrics) beside its run record. The command
// exits 1 when a curve is wrong or a workload fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/bench"
	"repro/bench/internal/span"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareCmd(os.Args[2:]))
	}
	fs := flag.NewFlagSet("orobench", flag.ExitOnError)
	var (
		name        = fs.String("workload", "", "run only this workload (default: all four)")
		seed        = fs.Uint64("seed", 1, "seed every generated input derives from")
		seconds     = fs.Int("seconds", 20, "measured duration of each workload, in seconds")
		trace       = fs.Int("trace", 0, "1 for a traced run that reports per-layer metrics")
		out         = fs.String("out", ".bench_build/runs", "directory for run records and traces")
		scratch     = fs.String("scratch", ".bench_build/scratch", "directory for stores, spools and checkpoints")
		writeGolden = fs.Bool("write-golden", false, "derive every fixed spec and write the golden table")
		goldenPath  = fs.String("golden", "bench/testdata/golden.json", "golden table written by -write-golden")
		child       = fs.Bool("child", false, "run one workload in this process (internal)")
		dir         = fs.String("dir", "", "scratch directory of a child run (internal)")
		traceFile   = fs.String("trace-file", "", "trace output of a child run (internal)")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *writeGolden {
		if err := bench.WriteGolden(ctx, *goldenPath); err != nil {
			fatal(err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *trace))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1, got %d", *seconds))
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1, out: *out, scratch: *scratch}
	if *child {
		if err := runChild(ctx, cfg, *name, *dir, *traceFile); err != nil {
			fatal(err)
		}
		return
	}
	os.Exit(runParent(ctx, cfg, *name))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "orobench:", err)
	os.Exit(1)
}

// runConfig is what every workload run of one invocation shares.
type runConfig struct {
	seed    uint64
	seconds int
	trace   bool
	out     string
	scratch string
}

// runChild runs workload name in this process and writes its result as
// JSON to standard output; a traced run also writes traceFile. The parent
// measures the references: requests go out on descriptor 3, answers come
// back on descriptor 4.
func runChild(ctx context.Context, cfg runConfig, name, dir, traceFile string) error {
	w, ok := bench.Find(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	o := bench.Options{
		Seed:     cfg.seed,
		Duration: time.Duration(cfg.seconds) * time.Second,
		Ref:      bench.NewPipeRef(os.NewFile(3, "reference requests"), os.NewFile(4, "reference replies")),
		Dir:      dir,
	}
	if cfg.trace {
		o.Tracer = span.New()
	}
	res, err := w.Run(ctx, o)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	dropNonFinite(res)
	if cfg.trace {
		if err := writeTrace(traceFile, res, o.Tracer); err != nil {
			return err
		}
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// dropNonFinite removes metrics that came out NaN or infinite (a phase
// with no samples), noting each, so the result still encodes and the
// summary reports the metric as missing instead of as a number.
func dropNonFinite(res *bench.Result) {
	for _, m := range []map[string]float64{res.Metrics, res.Layers} {
		for k, v := range m {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				delete(m, k)
				res.Notes[k] = "not finite"
			}
		}
	}
}
