// Command orojenesisd serves data-movement bound derivations over HTTP:
// a long-running counterpart to the orojenesis CLI for fleets that probe
// many workloads against one warm process. POST a workload spec — a
// single Einsum or GEMM (two- or three-level bound), a fused chain, or a
// chain segmentation study — to /v1/curve and get the Pareto frontier
// back as JSON, byte-identical to the in-process derivation, with
// admission control, per-request deadlines, single-flight result
// caching, panic containment, and graceful drain (SIGTERM checkpoints
// in-flight sharded derivations into the spool directory; a restarted
// server finishes them at startup from the spool's embedded workload
// specs, without waiting for the requests to be re-issued). A sharded request with "allow_partial" that
// loses shards permanently answers 206 Partial Content with a degraded
// envelope (covered_fraction, missing_shards) instead of an error, and
// keeps its spool as the resume point.
//
// Two flags turn processes into a derivation fleet
// (docs/fleet-protocol.md): -worker serves POST /v1/shard, executing
// shard dispatches for remote coordinators; -fleet URL,... makes this
// process a coordinator that dispatches its spooled sharded derivations
// to those workers — with retries, straggler speculation, and digest
// validation — and merges a curve byte-identical to deriving alone.
// The coordinator keeps a health-probed worker registry across requests:
// /readyz probes (-fleet-probe) and per-worker circuit breakers
// (-fleet-breaker-failures, -fleet-breaker-cooldown) shed load from
// failing workers, allocation prefers the highest observed throughput,
// and Retry-After hints from saturated or draining workers are honored.
// -fleet-file PATH replaces -fleet with a membership file reread on
// SIGHUP, so workers join and leave the fleet without a restart; GET
// /stats reports the membership's health gauges and per-worker detail.
//
// Example:
//
//	orojenesisd -addr :8080 -spool /var/lib/orojenesisd &
//	curl -s localhost:8080/v1/curve -d '{"gemm":{"m":512,"k":512,"n":512}}'
//	curl -s localhost:8080/v1/curve -d '{"segmentation":{"einsums":[
//	  "B[m,n] = A[m,k] * W[k,n] {M=64,K=8,N=16}",
//	  "C[m,n] = B[m,k] * V[k,n] {M=64,K=16,N=8}"]}}'
//
//	# two workers and a coordinator on one host
//	orojenesisd -addr :8081 -worker &
//	orojenesisd -addr :8082 -worker &
//	orojenesisd -addr :8080 -spool /var/lib/orojenesisd \
//	    -fleet http://localhost:8081,http://localhost:8082 &
//	curl -s localhost:8080/v1/curve -d '{"gemm":{"m":512,"k":512,"n":512},"shards":4}'
//
// See docs/server-api.md for the full API.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("orojenesisd: ")

	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "traversal goroutines per derivation (0 = GOMAXPROCS)")
	maxConcurrent := flag.Int("max-concurrent", 0, "simultaneous derivations (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "derivations waiting for a slot before 429 (0 = 4x max-concurrent)")
	queueWait := flag.Duration("queue-wait", 0, "longest a queued derivation waits before 429 (0 = 10s)")
	defaultTimeout := flag.Duration("timeout", 0, "default per-request deadline (0 = 60s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on client-requested deadlines (0 = 10m)")
	cacheEntries := flag.Int("cache", 0, "result-cache capacity in curves (0 = 128)")
	spool := flag.String("spool", "", "spool directory for sharded derivations (empty disables the shards request field)")
	storeDir := flag.String("store-dir", "", "durable curve-store directory (docs/curve-store.md): derived curves persist across restarts and are shared with CLI warmers (empty disables the disk tier)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "byte cap of -store-dir, enforced by LRU garbage collection (0 = 1 GiB default; small values clamped up)")
	checkpoint := flag.Int64("checkpoint", 0, "tiling indices per checkpoint flush for spooled shards (0 = shard default)")
	retries := flag.Int("retries", 0, "per-shard retry budget for spooled derivations (0 = default)")
	maxShards := flag.Int("max-shards", 0, "cap on the per-request shard count (0 = 64)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight derivations before cancelling them")
	worker := flag.Bool("worker", false, "serve POST /v1/shard: execute fleet shard dispatches for remote coordinators")
	fleetList := flag.String("fleet", "", "comma-separated worker base URLs; spooled sharded derivations dispatch to them instead of deriving in-process (requires -spool)")
	fleetPerWorker := flag.Int("fleet-per-worker", 0, "concurrent dispatches per fleet worker (0 = 2)")
	fleetSpeculate := flag.Duration("fleet-speculate", 0, "re-dispatch straggling fleet shards to an idle worker after this delay (0 disables speculation)")
	fleetFile := flag.String("fleet-file", "", "fleet membership file: one worker base URL per line, # comments; reread on SIGHUP to add/remove workers at runtime (requires -spool, excludes -fleet)")
	fleetProbe := flag.Duration("fleet-probe", 0, "fleet worker health-probe interval (0 = 15s, negative disables probing)")
	fleetBreakerFailures := flag.Int("fleet-breaker-failures", 0, "consecutive dispatch failures that open a fleet worker's circuit breaker (0 = 3)")
	fleetBreakerCooldown := flag.Duration("fleet-breaker-cooldown", 0, "how long an open breaker sheds load before a half-open probe dispatch (0 = 5s)")
	flag.Parse()

	var fleetWorkers []string
	if *fleetList != "" {
		if *fleetFile != "" {
			log.Fatal("-fleet and -fleet-file are mutually exclusive: pick a static list or a reloadable file")
		}
		if *spool == "" {
			log.Fatal("-fleet requires -spool: dispatched partials land in the spool so a killed coordinator can resume")
		}
		fleetWorkers = cliutil.ParseWorkerURLs(*fleetList)
		if len(fleetWorkers) == 0 {
			log.Fatal("-fleet lists no worker URLs")
		}
	}
	if *fleetFile != "" {
		if *spool == "" {
			log.Fatal("-fleet-file requires -spool: dispatched partials land in the spool so a killed coordinator can resume")
		}
		urls, err := cliutil.ReadFleetFile(*fleetFile)
		if err != nil {
			log.Fatal(err)
		}
		// An empty file is a valid empty membership: the server derives
		// locally until a SIGHUP reload lists workers.
		fleetWorkers = urls
	}
	workerDir := ""
	if *worker {
		// Worker checkpoints live beside the spool when there is one; an
		// execution-only worker without -spool checkpoints under the OS
		// temp directory (shard resume within one life of the process).
		if *spool != "" {
			workerDir = filepath.Join(*spool, "worker")
		} else {
			workerDir = filepath.Join(os.TempDir(), fmt.Sprintf("orojenesisd-worker-%d", os.Getpid()))
		}
	}

	srv := serve.New(serve.Config{
		Workers:              *workers,
		MaxConcurrent:        *maxConcurrent,
		MaxQueue:             *maxQueue,
		QueueWait:            *queueWait,
		DefaultTimeout:       *defaultTimeout,
		MaxTimeout:           *maxTimeout,
		CacheEntries:         *cacheEntries,
		SpoolDir:             *spool,
		StoreDir:             *storeDir,
		StoreMaxBytes:        *storeMaxBytes,
		CheckpointEvery:      *checkpoint,
		ShardRetries:         *retries,
		MaxShards:            *maxShards,
		WorkerDir:            workerDir,
		FleetWorkers:         fleetWorkers,
		FleetPerWorker:       *fleetPerWorker,
		FleetSpeculateAfter:  *fleetSpeculate,
		FleetProbeInterval:   *fleetProbe,
		FleetBreakerFailures: *fleetBreakerFailures,
		FleetBreakerCooldown: *fleetBreakerCooldown,
		Logf:                 log.Printf,
	})

	// SIGHUP rereads -fleet-file and reconciles the live membership:
	// workers added to the file join mid-run and pick up queued shards;
	// removed workers stop receiving dispatches (in-flight ones finish
	// or fail over). See docs/fleet-protocol.md, "Health, membership &
	// breakers".
	if *fleetFile != "" {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		go func() {
			for range hup {
				urls, err := cliutil.ReadFleetFile(*fleetFile)
				if err != nil {
					log.Printf("fleet membership reload failed (membership unchanged): %v", err)
					continue
				}
				added, removed := srv.SetFleetWorkers(urls)
				log.Printf("fleet membership reloaded from %s: %d worker(s), %d added, %d removed",
					*fleetFile, len(urls), added, removed)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Create the spool and worker directories — an unusable one fails
	// startup — and, since a previous process may have died
	// mid-derivation, finish every spooled sharded run it left with a
	// spec.json beside its checkpoints now, before taking traffic, and
	// serve them from cache. Spools without a spec (or that fail) are
	// kept; a client re-requesting the same derivation still resumes them.
	n, err := srv.ResumeOrphans(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if n > 0 {
		log.Printf("resumed %d orphaned derivation(s) from spool %q", n, *spool)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("listening on %s (spool %q)", *addr, *spool)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("draining (up to %s)...", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		log.Printf("drain cut short: %v (sharded progress checkpointed in spool)", err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	log.Printf("stopped")
}
