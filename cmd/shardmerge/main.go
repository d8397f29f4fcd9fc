// Command shardmerge recombines the partial-frontier files written by
// sharded orojenesis/fusionbounds runs (-shard k/N -out FILE) into the
// full ski-slope curve — byte-identical to the curve a single-process run
// derives. It refuses, with a descriptive error, any set of partials that
// does not form the complete shard set of one derivation: mismatched
// workload or options digests, differing engine versions, missing,
// duplicated or incomplete shards. With -out the file is replaced
// atomically, so a killed or failing merge never leaves a torn curve.
// See docs/shard-format.md for the file format.
//
// With -allow-partial, an incomplete shard set (missing or interrupted
// shards) merges into an explicitly annotated degraded curve instead of
// being refused: the JSON output is the degraded envelope carrying the
// covered index fraction, and the CSV output leads with "# degraded"
// comment lines. A degraded curve is a valid but potentially loose lower
// bound — see docs/shard-format.md, "Failure model".
//
// With -resume, incomplete partials are finished in place first: each
// format-version-2 partial embeds the workload spec its job was compiled
// from, so shardmerge rebuilds the job from the manifest alone — no
// orojenesis/fusionbounds invocation, no original command line — runs
// the remaining slice, and then merges. Legacy (format version 1)
// partials carry no spec and must be completed by the tool that wrote
// them.
//
// Examples:
//
//	shardmerge -out curve.json part1.json part2.json part3.json part4.json
//	shardmerge -csv part*.json > curve.csv
//	shardmerge -allow-partial -out degraded.json part1.json part3.json
//	shardmerge -resume -out curve.json part1.json part2.json part3.json part4.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/pareto"
	"repro/internal/shape"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("shardmerge: ")

	out := flag.String("out", "", "write the merged curve as JSON to this file (default: stdout)")
	csv := flag.Bool("csv", false, "emit two-column CSV instead of JSON")
	summary := flag.Bool("summary", true, "print a merge summary to stderr")
	allowPartial := flag.Bool("allow-partial", false, "merge an incomplete shard set into an explicitly annotated degraded curve instead of refusing")
	resume := flag.Bool("resume", false, "complete incomplete partials in place before merging, rebuilding each job from the spec embedded in its manifest (format version 2)")
	workers := flag.Int("workers", 0, "parallel evaluation goroutines for -resume (0 = GOMAXPROCS)")
	flag.Parse()

	paths := flag.Args()
	if len(paths) == 0 {
		log.Fatal("no partial-frontier files given (usage: shardmerge -out curve.json part1.json part2.json ...)")
	}

	partials := make([]*shard.Partial, len(paths))
	for i, path := range paths {
		p, err := shard.ReadPartial(nil, path)
		if err != nil {
			log.Fatal(err)
		}
		partials[i] = p
	}

	if *resume {
		resumeIncomplete(partials, paths, *workers, *summary)
	}

	if *allowPartial {
		d, err := shard.MergeDegraded(partials...)
		if err != nil {
			log.Fatal(err)
		}
		if *summary {
			m := &partials[0].Manifest
			fmt.Fprintf(os.Stderr, "degraded merge of %d/%d shards of %q (%s): covers %d of %d indices (%.2f%%), %d points, missing %v, incomplete %v\n",
				len(partials), d.ShardCount, m.Workload, m.Kind,
				d.CoveredIndices, d.Items, 100*d.CoveredFraction, d.Curve.Len(),
				d.MissingShards, d.IncompleteShards)
		}
		// The JSON form is the annotated envelope; the CSV form leads with
		// "# degraded" comment lines, so the coverage annotation can never
		// be separated from the data.
		header := fmt.Sprintf("# degraded: %t\n# covered_indices: %d of %d (fraction %.6f)\n# missing_shards: %v\n# incomplete_shards: %v\n",
			!d.Complete(), d.CoveredIndices, d.Items, d.CoveredFraction, d.MissingShards, d.IncompleteShards)
		if err := write(*out, *csv, d, d.Curve, header); err != nil {
			log.Fatal(err)
		}
		return
	}

	merged, err := shard.Merge(partials...)
	if err != nil {
		log.Fatal(err)
	}

	if *summary {
		m := &partials[0].Manifest
		fmt.Fprintf(os.Stderr, "merged %d shards of %q (%s, %d indices): %d points, buf %s..%s\n",
			m.ShardCount, m.Workload, m.Kind, m.Items, merged.Len(),
			shape.FormatBytes(merged.MinBufferBytes()),
			shape.FormatBytes(merged.MaxEffectualBufferBytes()))
	}

	if err := write(*out, *csv, merged, merged, ""); err != nil {
		log.Fatal(err)
	}
}

// resumeIncomplete finishes every incomplete partial in place: the job
// is rebuilt from the spec embedded in the partial's own manifest (and
// cross-checked against its digests), shard.Run completes the remaining
// slice into the same file, and the re-read result replaces the stale
// entry in partials. SIGINT/SIGTERM flush a final checkpoint and exit
// resumable with status 130, like the derivation CLIs.
func resumeIncomplete(partials []*shard.Partial, paths []string, workers int, summary bool) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	for i, p := range partials {
		if p.Manifest.Complete() {
			continue
		}
		job, _, err := workload.JobFromManifest(&p.Manifest, workload.Exec{Workers: workers})
		if err != nil {
			log.Fatal(err)
		}
		if summary {
			fmt.Fprintf(os.Stderr, "resuming shard %d/%d of %q at index %d of [%d, %d)\n",
				p.Manifest.ShardIndex+1, p.Manifest.ShardCount, p.Manifest.Workload,
				p.Manifest.CompletedThrough, p.Manifest.RangeLo, p.Manifest.RangeHi)
		}
		fresh, rs, err := shard.Run(ctx, job, shard.RunOptions{Path: paths[i]})
		if err != nil {
			if ctx.Err() != nil && fresh != nil {
				log.Printf("interrupted at index %d; checkpoint flushed to %s — rerun the same command to resume",
					fresh.Manifest.CompletedThrough, paths[i])
				os.Exit(130)
			}
			log.Fatal(err)
		}
		if summary {
			fmt.Fprintf(os.Stderr, "completed shard %d/%d: %d candidates evaluated in %v\n",
				fresh.Manifest.ShardIndex+1, fresh.Manifest.ShardCount, rs.Evaluated, rs.Elapsed)
		}
		partials[i] = fresh
	}
}

// write emits a merge result to path, or to stdout when path is empty:
// payload as one JSON line, or with csv the header followed by curve's
// two-column CSV. A file is replaced atomically (shard.WriteFileAtomic),
// so a killed or failing merge leaves the previous file or the complete
// new one, never a torn curve.
func write(path string, csv bool, payload any, curve *pareto.Curve, header string) error {
	var buf bytes.Buffer
	if csv {
		buf.WriteString(header)
		if _, err := curve.WriteTo(&buf); err != nil {
			return err
		}
	} else {
		data, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		buf.Write(append(data, '\n'))
	}
	if path == "" {
		_, err := os.Stdout.Write(buf.Bytes())
		return err
	}
	return shard.WriteFileAtomic(nil, path, buf.Bytes())
}
