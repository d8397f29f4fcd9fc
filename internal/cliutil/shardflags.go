package cliutil

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/pareto"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// ShardFlags is the sharded-execution flag block shared by the
// derivation CLIs (orojenesis, fusionbounds): one shard slice with
// -shard k/N, a whole supervised run with -supervise N, or a distributed
// run with -supervise N -fleet URL,... dispatching shards to remote
// workers, plus the knobs the modes share. Register it with
// AddShardFlags; dispatch with RunSharded.
type ShardFlags struct {
	// Shard is the "k/N" plan of a single-slice run ("" = off).
	Shard string
	// Out is the partial-frontier file of -shard (checkpoint target and
	// final artifact), or the merged-curve JSON file of -supervise.
	Out string
	// Checkpoint is the per-shard checkpoint stride (0 = ~1/32 of the
	// slice).
	Checkpoint int64
	// Supervise is the fleet width of a supervised run (0 = off).
	Supervise int
	// ShardDir is the supervised fleet's checkpoint directory.
	ShardDir string
	// Retries is the supervised per-shard retry budget (0 = default,
	// negative = none).
	Retries int
	// AllowPartial accepts a degraded supervised merge instead of
	// refusing when shards fail permanently.
	AllowPartial bool
	// Fleet is the comma-separated worker URL list of a distributed run
	// ("" = derive locally): with -supervise N, shards are dispatched to
	// these workers over HTTP (docs/fleet-protocol.md) instead of derived
	// in-process.
	Fleet string
	// FleetProbe is the worker health-probe interval of a distributed
	// run (0 disables probing — CLI runs are finite, so dispatch
	// outcomes alone usually suffice).
	FleetProbe time.Duration
	// FleetBreakerFailures is the consecutive-failure threshold that
	// opens a worker's circuit breaker (0 = default).
	FleetBreakerFailures int
	// FleetBreakerCooldown is how long an open breaker sheds load
	// before admitting a half-open probe dispatch (0 = default).
	FleetBreakerCooldown time.Duration
}

// AddShardFlags registers the shared shard flag block on fs. indexNoun
// names the unit of the checkpoint stride in help text ("tiling
// indices", "template indices").
func AddShardFlags(fs *flag.FlagSet, indexNoun string) *ShardFlags {
	f := &ShardFlags{}
	fs.StringVar(&f.Shard, "shard", "", "derive only shard k/N of the index space into -out (e.g. 1/4); resumes an interrupted run from the same file")
	fs.StringVar(&f.Out, "out", "", "partial-frontier file for -shard (checkpoint target and final artifact), or merged-curve JSON file for -supervise")
	fs.Int64Var(&f.Checkpoint, "checkpoint", 0, indexNoun+" per checkpoint flush in -shard/-supervise mode (0 = ~1/32 of each slice)")
	fs.IntVar(&f.Supervise, "supervise", 0, "derive all N shards under one supervisor (retry, quarantine, resumable interrupt) and merge the result")
	fs.StringVar(&f.ShardDir, "shard-dir", "", "directory for per-shard checkpoint files in -supervise mode (required; reused on resume)")
	fs.IntVar(&f.Retries, "retries", 0, "per-shard retry budget in -supervise mode (0 = default, negative = none)")
	fs.BoolVar(&f.AllowPartial, "allow-partial", false, "in -supervise mode, emit an annotated degraded curve when shards fail permanently instead of refusing")
	fs.StringVar(&f.Fleet, "fleet", "", "comma-separated worker base URLs; with -supervise N, dispatch the shards to these workers over HTTP instead of deriving locally")
	fs.DurationVar(&f.FleetProbe, "fleet-probe", 0, "health-probe interval for -fleet workers (0 disables probing for the run)")
	fs.IntVar(&f.FleetBreakerFailures, "fleet-breaker-failures", 0, "consecutive dispatch failures that open a -fleet worker's circuit breaker (0 = 3)")
	fs.DurationVar(&f.FleetBreakerCooldown, "fleet-breaker-cooldown", 0, "how long an open -fleet breaker sheds load before a half-open probe dispatch (0 = 5s)")
	return f
}

// Active reports whether any sharded mode was requested. A bare -fleet
// counts so its "requires -supervise" diagnosis surfaces instead of the
// flag being ignored.
func (f *ShardFlags) Active() bool { return f.Supervise > 0 || f.Shard != "" || f.Fleet != "" }

// ShardRunConfig is the per-CLI presentation of the shared shard
// runners: the workload header line, the nouns of the progress messages,
// and the summary renderer.
type ShardRunConfig struct {
	// Header is the first line of output (e.g. "workload: ...").
	Header string
	// IndexNoun names the checkpoint stride unit in progress messages
	// ("indices", "template indices").
	IndexNoun string
	// EvalNoun names the evaluated unit ("mappings", "candidates").
	EvalNoun string
	// Stats enables per-checkpoint progress lines.
	Stats bool
	// Summarize, when non-nil, renders the merged curve's summary table
	// after a supervised run.
	Summarize func(*pareto.Curve)
}

// signalContext is the CLI lifetime: cancelled by SIGINT/SIGTERM so
// shard runs flush a final checkpoint and exit resumable.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// RunSharded runs spec under the shard flags: one slice into a
// resumable partial-frontier file with -shard k/N, or all N shards with
// -supervise N -shard-dir DIR — in process, or dispatched to the -fleet
// workers over HTTP (docs/fleet-protocol.md) — merged into one curve.
// The spec is materialized first: shard jobs need derived inputs (e.g.
// the segmentation study's per-op curves) up front so every shard — and
// every resume — hashes the same workload digest. SIGINT/SIGTERM flush
// final checkpoints and exit with status 130; rerunning the same command
// resumes. Fatal on any other error.
func RunSharded(cfg ShardRunConfig, f *ShardFlags, spec *workload.Spec, workers int) {
	ctx, stop := signalContext()
	defer stop()
	exec := workload.Exec{Workers: workers}
	mspec, err := spec.Materialize(ctx, exec)
	if err != nil {
		log.Fatal(err)
	}
	mkJob := func(p shard.Plan) (shard.Job, error) { return mspec.Compile(p, exec) }
	if f.Supervise <= 0 && f.Fleet == "" {
		runShard(ctx, cfg, f, mkJob)
		return
	}
	runPlan(ctx, cfg, f, mkJob)
}

// runShard derives one slice of the job's index space into a resumable
// partial-frontier file (the -shard k/N -out FILE mode).
func runShard(ctx context.Context, cfg ShardRunConfig, f *ShardFlags, mkJob func(shard.Plan) (shard.Job, error)) {
	if f.Out == "" {
		log.Fatal("-shard requires -out FILE for the partial frontier")
	}
	plan, err := shard.ParsePlan(f.Shard)
	if err != nil {
		log.Fatal(err)
	}
	job, err := mkJob(plan)
	if err != nil {
		log.Fatal(err)
	}
	ropts := shard.RunOptions{Path: f.Out, CheckpointEvery: f.Checkpoint}
	if cfg.Stats {
		ropts.OnCheckpoint = func(m shard.Manifest) {
			fmt.Printf("checkpoint: %d / %d %s of shard %s\n",
				m.CompletedThrough-m.RangeLo, m.RangeHi-m.RangeLo, cfg.IndexNoun, plan)
		}
	}
	p, rs, err := shard.Run(ctx, job, ropts)
	if err != nil {
		if ctx.Err() != nil && p != nil {
			log.Printf("interrupted at index %d of shard %s; checkpoint flushed to %s — rerun the same command to resume",
				p.Manifest.CompletedThrough, plan, f.Out)
			os.Exit(130)
		}
		log.Fatal(err)
	}
	lo, hi := plan.Slice(job.Items)
	fmt.Println(cfg.Header)
	if rs.Resumed {
		fmt.Printf("resumed shard %s at index %d\n", plan, rs.ResumedFrom)
	}
	fmt.Printf("shard %s: indices [%d, %d) of %d, %d %s evaluated in %v\n",
		plan, lo, hi, job.Items, rs.Evaluated, cfg.EvalNoun, rs.Elapsed)
	fmt.Printf("partial frontier: %d points -> %s\n", p.Curve.Len(), f.Out)
}

// runPlan derives all N shards under fleet.Run (the -supervise N
// -shard-dir DIR mode, with -fleet URL,... dispatching them): retried
// with backoff on transient failures, corrupt checkpoints and invalid
// responses quarantined, SIGINT/SIGTERM resumable by rerunning. The
// merged curve — exact, or degraded under -allow-partial — is summarized
// and optionally written to -out.
func runPlan(ctx context.Context, cfg ShardRunConfig, f *ShardFlags, mkJob func(shard.Plan) (shard.Job, error)) {
	if f.Supervise <= 0 {
		log.Fatal("-fleet requires -supervise N (the shard count to dispatch)")
	}
	if f.ShardDir == "" {
		log.Fatal("-supervise requires -shard-dir DIR for the per-shard checkpoint files")
	}
	urls := ParseWorkerURLs(f.Fleet)
	if f.Fleet != "" && len(urls) == 0 {
		log.Fatal("-fleet lists no worker URLs")
	}
	opts := fleet.Options{
		Dir:             f.ShardDir,
		CheckpointEvery: f.Checkpoint,
		MaxRetries:      f.Retries,
		AllowPartial:    f.AllowPartial,
		Logf:            log.Printf,
	}
	if len(urls) > 0 {
		opts.Registry = fleet.NewRegistry(urls, fleet.RegistryConfig{
			Breaker: fleet.BreakerConfig{
				Failures: f.FleetBreakerFailures,
				Cooldown: f.FleetBreakerCooldown,
			},
			Logf: log.Printf,
		})
		if f.FleetProbe > 0 {
			pctx, stop := context.WithCancel(ctx)
			defer stop()
			opts.Registry.StartProbing(pctx, f.FleetProbe, nil)
		}
	}
	if cfg.Stats {
		opts.OnCheckpoint = func(m shard.Manifest) {
			fmt.Printf("checkpoint: shard %d/%d at %d / %d %s\n",
				m.ShardIndex+1, m.ShardCount, m.CompletedThrough-m.RangeLo, m.RangeHi-m.RangeLo, cfg.IndexNoun)
		}
	}
	report, err := fleet.Run(ctx, f.Supervise, mkJob, opts)
	if report != nil && report.Interrupted {
		log.Printf("interrupted; shard checkpoints flushed under %s — rerun the same command to resume", f.ShardDir)
		os.Exit(130)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println(cfg.Header)
	var attempts int
	for _, st := range report.Shards {
		attempts += st.Attempts
		for _, q := range st.Quarantined {
			fmt.Printf("shard %s: quarantined -> %s\n", st.Plan, q)
		}
	}
	if len(urls) > 0 {
		t := opts.Registry.Totals()
		fmt.Printf("fleet of %d workers derived %d shards in %d dispatches (%d retries, %d speculations, %d deferrals)\n",
			len(urls), f.Supervise, t.Dispatches, t.Retries, t.Speculations, t.Deferrals)
	} else {
		fmt.Printf("supervised %d shards in %d attempts\n", f.Supervise, attempts)
	}
	curve := report.Curve
	// A degraded result is serialized only inside its annotated
	// envelope, never as a bare curve.
	var payload any = curve
	if curve.Degraded {
		d := report.Degraded
		payload = d
		fmt.Printf("DEGRADED curve: covers %d of %d indices (%.2f%%); missing shards %v, incomplete %v\n",
			d.CoveredIndices, d.Items, 100*d.CoveredFraction, d.MissingShards, d.IncompleteShards)
	}
	if cfg.Summarize != nil {
		cfg.Summarize(curve)
	}
	if f.Out != "" {
		writeOut(f.Out, payload)
		fmt.Printf("merged curve: %d points -> %s\n", curve.Len(), f.Out)
	}
}

// RunSpec loads a serialized workload Spec (see docs/workload-spec.md)
// and runs it under the shared shard flags: in-process by default, or
// sharded through RunSharded. This is
// the -spec FILE mode of the derivation CLIs — any CLI can run any kind,
// because everything after decoding goes through the Spec. st, when
// non-nil, is the durable curve store the in-process path checks and
// populates (StoreRun); sharded modes ignore it — their unit of
// persistence is the per-shard checkpoint, and their merged curves reach
// the store when a server or in-process run derives them. summarize,
// when non-nil, renders the final curve's summary table with the Spec's
// kind as the series name.
func RunSpec(path string, f *ShardFlags, st *store.Store, workers int, stats bool, summarize func(name string, c *pareto.Curve)) {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	spec, err := workload.Decode(data)
	if err != nil {
		log.Fatal(err)
	}
	exec := workload.Exec{Workers: workers}
	header := fmt.Sprintf("spec: %s (kind %s)", spec.Describe(), spec.Kind)
	cfg := ShardRunConfig{
		Header:    header,
		IndexNoun: "indices",
		EvalNoun:  "candidates",
		Stats:     stats,
	}
	if summarize != nil {
		cfg.Summarize = func(c *pareto.Curve) { summarize(string(spec.Kind), c) }
	}

	if f.Active() {
		RunSharded(cfg, f, spec, workers)
		return
	}

	ctx, stop := signalContext()
	defer stop()
	res, err := StoreRun(ctx, st, spec, exec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(header)
	if res.Hit {
		fmt.Printf("candidates evaluated: %d (replayed from curve store)\n", res.Evaluated)
	} else {
		fmt.Printf("candidates evaluated: %d\n", res.Evaluated)
	}
	if len(res.Segments) > 0 {
		fmt.Printf("segmentations: %d\n", len(res.Segments))
	}
	fmt.Printf("frontier: %d points\n", res.Curve.Len())
	if cfg.Summarize != nil {
		cfg.Summarize(res.Curve)
	}
	if f.Out != "" {
		writeOut(f.Out, res.Curve)
		fmt.Printf("curve: %d points -> %s\n", res.Curve.Len(), f.Out)
	}
}

// writeOut writes v as one JSON line to the -out path with
// shard.WriteFileAtomic, so a killed run leaves the previous file or the
// complete new one, never a torn curve; any failure is fatal.
func writeOut(path string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	if err := shard.WriteFileAtomic(nil, path, append(data, '\n')); err != nil {
		log.Fatal(err)
	}
}
