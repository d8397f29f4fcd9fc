// Command fusionbounds derives multi-Einsum fusion bounds for GEMM chains
// (Fig. 18, Sec. VI): the optimal unfused baseline, untiled fusion, tiled
// fusion, and the best segmentation, plus the tiled-vs-unfused reduction
// factors (Fig. 18b).
//
// Example (the paper's Fig. 18 pair):
//
//	fusionbounds -m 32768 -ops 4096x16384,16384x4096 -ascii
//
// Sharded derivation (see docs/shard-format.md): each fleet member
// derives one slice of the selected sweep — the FFMT template space
// (-path tiled, the default) or the 2^(n-1) segmentation-mask space
// (-path segmentation) — into a resumable partial-frontier file, merged
// back with shardmerge:
//
//	fusionbounds -m 32768 -ops 4096x16384,16384x4096 -shard 1/4 -out part1.json
//	...                                              -shard 4/4 -out part4.json
//	shardmerge -out tiled.json part1.json part2.json part3.json part4.json
//
// Or supervised in one process — all N shards with retry/backoff,
// quarantine of corrupt checkpoints, and resumable SIGINT/SIGTERM (see
// docs/shard-format.md, "Failure model"):
//
//	fusionbounds -m 32768 -ops 4096x16384,16384x4096 -supervise 4 -shard-dir parts/ -out tiled.json
//	fusionbounds -m 32768 -ops 4096x16384,16384x4096 -path segmentation -supervise 4 -shard-dir segparts/ -out best.json
//
// Any serialized workload spec (docs/workload-spec.md) runs through the
// same modes, whatever its kind — derivations are first-class values:
//
//	fusionbounds -spec spec.json -supervise 4 -shard-dir parts/ -out curve.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	orojenesis "repro"
	"repro/internal/cliutil"
	"repro/internal/pareto"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fusionbounds: ")

	m := flag.Int64("m", 32768, "shared row dimension M of the chain")
	ops := flag.String("ops", "4096x16384,16384x4096", "comma-separated KxN per op")
	einsums := flag.String("einsums", "", `semicolon-separated GEMM einsums, e.g. "C[m,n]=A[m,k]*W[k,n]{M=1024,K=1024,N=2048}; D[m,n]=C[m,k]*V[k,n]{M=1024,K=2048,N=1024}" (each op's K must equal its predecessor's N)`)
	csv := flag.Bool("csv", false, "emit all curves as CSV")
	ascii := flag.Bool("ascii", false, "render an ASCII chart")
	reductions := flag.Bool("reductions", true, "print tiled-vs-unfused reduction factors")
	workers := flag.Int("workers", 0, "parallel evaluation goroutines (0 = GOMAXPROCS)")
	stats := flag.Bool("stats", false, "print per-phase traversal statistics")
	path := flag.String("path", "tiled", "sharded derivation path: tiled (FFMT template sweep) or segmentation (2^(n-1) cut study)")
	specFile := flag.String("spec", "", "run a serialized workload spec (JSON, any kind; see docs/workload-spec.md) instead of workload flags")
	sf := cliutil.AddShardFlags(flag.CommandLine, "template indices")
	stf := cliutil.AddStoreFlags(flag.CommandLine)
	flag.Parse()

	opts := orojenesis.Options{Workers: *workers}
	if err := opts.Validate(); err != nil {
		log.Fatal(err)
	}

	if *specFile != "" {
		cliutil.RunSpec(*specFile, sf, stf.Open(), *workers, *stats, summarize)
		return
	}

	var chain *orojenesis.Chain
	var err error
	if *einsums != "" {
		chain, err = buildEinsumChain(*einsums)
	} else {
		chain, err = buildChain(*m, *ops)
	}
	if err != nil {
		log.Fatal(err)
	}

	if sf.Active() {
		spec, err := buildSpec(chain, *path)
		if err != nil {
			log.Fatal(err)
		}
		name := "tiled-fusion"
		if *path == "segmentation" {
			name = "best-segmentation"
		}
		cfg := cliutil.ShardRunConfig{
			Header:    fmt.Sprintf("chain: %d ops over M=%d", chain.Len(), chain.M),
			IndexNoun: "template indices",
			EvalNoun:  "candidates",
			Stats:     *stats,
			Summarize: func(c *pareto.Curve) { summarize(name, c) },
		}
		cliutil.RunSharded(cfg, sf, spec, *workers)
		return
	}
	a, err := orojenesis.AnalyzeChain(chain, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("chain: %d ops over M=%d\n", chain.Len(), chain.M)
	fmt.Printf("algorithmic min: unfused %d B, fused %d B\n", a.UnfusedAlgoMin, a.AlgoMin)
	if *stats {
		fmt.Printf("\n%-22s %12s %8s %12s %14s\n", "phase", "evaluated", "workers", "elapsed", "points/sec")
		for _, p := range a.Stats.Phases {
			fmt.Printf("%-22s %12d %8d %12v %14.0f\n",
				p.Name, p.Evaluated, p.Workers, p.Elapsed.Round(time.Microsecond), p.PerSec())
		}
		fmt.Printf("%-22s %12d %8d %12v\n\n", "total",
			a.Stats.TotalEvaluated(), a.Stats.Workers, a.Stats.Total().Round(time.Microsecond))
	}

	series := []orojenesis.Series{
		{Name: "unfused", Curve: a.Unfused},
		{Name: "untiled-fusion", Curve: a.Untiled},
		{Name: "tiled-fusion", Curve: a.Tiled},
		{Name: "best-segmentation", Curve: a.Best},
	}
	fmt.Print(orojenesis.SummaryTable([]int64{1 << 20, 10 << 20, 256 << 20}, series...))
	if *ascii {
		fmt.Print(orojenesis.Ascii(orojenesis.AsciiOptions{}, series...))
	}
	if *csv {
		if err := orojenesis.WriteCSV(os.Stdout, series...); err != nil {
			log.Fatal(err)
		}
	}
	if *reductions {
		fmt.Println("\nbuffer_bytes,tiled_vs_unfused_reduction")
		for _, mb := range []int64{1, 4, 10, 32, 64, 128, 256, 512} {
			buf := mb << 20
			if r, ok := a.FusionProfit(buf); ok {
				fmt.Printf("%d,%.3f\n", buf, r)
			}
		}
	}
}

// buildSpec returns the workload Spec of the selected derivation path —
// the value every sharded mode compiles its jobs from (and the fleet mode
// ships to remote workers verbatim), so every checkpoint manifest embeds
// it and stays resumable by shardmerge -resume alone. The segmentation
// path's per-op curves are derived by cliutil.RunSharded (Materialize)
// before any shard job is compiled.
func buildSpec(chain *orojenesis.Chain, path string) (*workload.Spec, error) {
	switch path {
	case "tiled":
		return workload.NewFusionTiled(chain), nil
	case "segmentation":
		return workload.NewSegmentation(chain, nil), nil
	default:
		return nil, fmt.Errorf("unknown -path %q (want tiled or segmentation)", path)
	}
}

// summarize renders the chain summary table for a merged or spec-run
// curve — the Summarize hook of the shared shard runners.
func summarize(name string, c *pareto.Curve) {
	fmt.Print(orojenesis.SummaryTable(
		[]int64{1 << 20, 10 << 20, 256 << 20},
		orojenesis.Series{Name: name, Curve: c}))
}

func buildEinsumChain(spec string) (*orojenesis.Chain, error) {
	var es []*orojenesis.Einsum
	for _, part := range strings.Split(spec, ";") {
		e, err := orojenesis.ParseEinsum(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		es = append(es, e)
	}
	return orojenesis.ChainFromEinsums("chain", es...)
}

func buildChain(m int64, spec string) (*orojenesis.Chain, error) {
	pairs, err := cliutil.ParseChainOps(spec)
	if err != nil {
		return nil, err
	}
	if len(pairs) < 2 {
		return nil, fmt.Errorf("need at least two ops")
	}
	opsList := make([]orojenesis.Op, len(pairs))
	for i, kn := range pairs {
		opsList[i] = orojenesis.GEMMOp(fmt.Sprintf("op%d", i), m, kn[0], kn[1])
	}
	return orojenesis.NewChain("chain", m, opsList...)
}
