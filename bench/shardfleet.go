package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/bench/internal/span"
	"repro/bench/internal/stat"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/workload"
)

// fleetShards is the shard count of the sharded variants.
const fleetShards = 4

// checkpointEvery is the sharded variants' checkpoint stride, in
// enumeration indices: 1 to 4 checkpoints per shard of the rotation, 72 per
// pass. The servers' default, a checkpoint every 1/32 of a shard, makes
// 1,024 per pass, each two fsyncs; fsync latency on a shared disk swings
// with other tenants' writes, and under a neighbour's sustained writes the
// default's pass time tripled while the reference did not move.
const checkpointEvery = 1024

// variant is one way shard-fleet sends its rotation.
type variant struct {
	name   string // detail metric prefix: <name>_pass_s
	fleet  bool   // to the coordinator (else the local spooled server)
	shards int
	// ratio names the layer metric of this variant's pass time over the
	// in-process one.
	ratio string
}

var variants = []variant{
	{"inproc", false, 0, ""},
	{"supervised", false, fleetShards, "supervise.overhead_ratio"},
	{"fleet", true, fleetShards, "fleet.overhead_ratio"},
}

// fleetSetup is the shard-fleet topology: two fleet workers, a
// coordinator dispatching to them, and a local spooled server for the
// in-process and supervised variants.
type fleetSetup struct {
	workers     [2]*server
	coord       *server
	local       *server
	transport   *spanTransport
	checkpoints atomic.Int64
}

func (f *fleetSetup) stop() {
	for _, s := range []*server{f.coord, f.local, f.workers[0], f.workers[1]} {
		if s != nil {
			s.stop()
		}
	}
}

// startFleet starts the four servers under dir.
func startFleet(o Options, dir string, current *atomic.Uint64) (*fleetSetup, error) {
	f := &fleetSetup{}
	count := func(shard.Manifest) { f.checkpoints.Add(1) }
	for i := range f.workers {
		wdir := filepath.Join(dir, fmt.Sprintf("worker-%d", i))
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			return f, err
		}
		w, err := startServer(serve.Config{WorkerDir: wdir, CheckpointEvery: checkpointEvery, OnCheckpoint: count}, o.Tracer, "worker.shard")
		if err != nil {
			return f, err
		}
		f.workers[i] = w
	}
	f.transport = &spanTransport{base: http.DefaultTransport.(*http.Transport).Clone(), tr: o.Tracer, current: current}
	var err error
	f.coord, err = startServer(serve.Config{
		SpoolDir:        filepath.Join(dir, "coord-spool"),
		FleetWorkers:    []string{f.workers[0].url, f.workers[1].url},
		FleetClient:     &http.Client{Transport: f.transport},
		CheckpointEvery: checkpointEvery, // forwarded to the workers
	}, o.Tracer, "coord.handler")
	if err != nil {
		return f, err
	}
	f.local, err = startServer(serve.Config{
		SpoolDir: filepath.Join(dir, "local-spool"), CheckpointEvery: checkpointEvery, OnCheckpoint: count,
	}, o.Tracer, "local.handler")
	return f, err
}

// rotationEntry is one rotation request with its expected reply.
type rotationEntry struct {
	id     string
	spec   *workload.Spec
	digest string
	curve  *pareto.Curve
	want   []byte
	bodies [3][]byte // per variant
}

// setupFleet starts the topology and derives the rotation in-process,
// checking every curve against the golden table.
func setupFleet(ctx context.Context, o Options, dir string, golden Golden, current *atomic.Uint64) (*fleetSetup, []rotationEntry, error) {
	f, err := startFleet(o, dir, current)
	if err != nil {
		return f, nil, err
	}
	var rot []rotationEntry
	for _, q := range fleetRequests() {
		if o.Short && !q.Cheap {
			continue
		}
		e, err := newEntry(&q.Req)
		if err != nil {
			return f, nil, err
		}
		res, err := e.spec.Run(ctx, workload.Exec{})
		if err != nil {
			return f, nil, err
		}
		if !golden.Check(q.ID, res.Curve) {
			return f, nil, fmt.Errorf("bench: %s: %w", q.ID, errGolden)
		}
		re := rotationEntry{id: q.ID, spec: e.spec, digest: e.digest, curve: res.Curve}
		if re.want, err = json.Marshal(res.Curve); err != nil {
			return f, nil, err
		}
		for v, vr := range variants {
			req := q.Req
			req.NoCache, req.Shards = true, vr.shards
			if re.bodies[v], err = json.Marshal(req); err != nil {
				return f, nil, err
			}
		}
		rot = append(rot, re)
	}
	return f, rot, nil
}

func runShardFleet(ctx context.Context, o Options) (*Result, error) {
	r := newResult("shard-fleet")
	golden, err := LoadGolden()
	if err != nil {
		return nil, err
	}
	h := o.timer(RefMixed)
	var current atomic.Uint64 // client span in flight, for dispatch spans
	var setups []op
	var f *fleetSetup
	var rot []rotationEntry
	for k := 0; k < setupRepeats; k++ {
		if f != nil {
			f.stop()
			f = nil
		}
		d, rerr := h.timeAfter(setupRefs, func() {
			f, rot, err = setupFleet(ctx, o, filepath.Join(o.Dir, fmt.Sprintf("fleet-%d", k)), golden, &current)
		})
		if err = errors.Join(rerr, err); err != nil {
			if f != nil {
				f.stop()
			}
			return nil, err
		}
		setups = append(setups, d)
		r.check(true)
	}
	defer f.stop()
	r.setSetup(setups)
	client := newClient(1)
	defer client.CloseIdleConnections()

	// The end-to-end metrics cover the two sharded variants only: the
	// in-process one is what the derive workloads measure, and leaving it
	// out gives the supervised variant half of pass_s and of latency_ms
	// instead of a third. Untraced runs skip it, which leaves time for half
	// again as many passes; traced runs time it for the overhead ratios.
	skip := func(vr variant) bool { return vr.shards == 0 && o.Tracer == nil }
	t := &tally{}
	var traced []float64
	perVariant := make([][]float64, len(variants))
	var evaluated int64
	before := f.coord.srv.Snapshot()
	ck0, kb0 := f.checkpoints.Load(), f.transport.bytes.Load()
	m0 := readMeter()
	start := time.Now()
	for i := 0; i < o.minPasses() || time.Since(start) < o.Duration; i++ {
		tr := o.traced(i)
		pass := tr.ID()
		pt := time.Now()
		walls := make([]float64, len(variants))
		for v, vr := range variants {
			if skip(vr) {
				continue
			}
			url := f.local.url
			if vr.fleet {
				url = f.coord.url
			}
			for _, e := range rot {
				id := tr.ID()
				var reply curveReply
				var err error
				var begin time.Time
				d, rerr := h.time(func() {
					if vr.fleet {
						current.Store(id)
					}
					begin = time.Now()
					reply, err = postCurve(client, url, e.bodies[v], id)
					current.Store(0)
				})
				if rerr != nil {
					return nil, rerr
				}
				tr.Add(id, pass, "client.request", vr.name, begin, begin.Add(d.wall))
				switch {
				case err != nil:
					r.check(false)
					continue
				case reply.Digest != e.digest || !bytes.Equal(reply.Curve, e.want):
					r.mismatch()
					continue
				}
				r.check(true)
				if vr.shards > 0 {
					t.add(d, vr.name+"/"+e.id)
				}
				walls[v] += d.wall.Seconds()
				evaluated += reply.Evaluated
			}
		}
		scaled, k := t.endPass(tr != nil)
		if tr != nil {
			tr.Add(pass, 0, "pass", "shard-fleet", pt, time.Now())
			traced = append(traced, scaled)
			continue
		}
		for v, vr := range variants {
			if !skip(vr) {
				perVariant[v] = append(perVariant[v], k*walls[v])
			}
		}
	}
	n := len(t.passScaled) + len(traced)
	r.runtimeLayers(m0, readMeter(), n)
	after := f.coord.srv.Snapshot()
	r.setTimes(t)
	for v, vr := range variants {
		if !skip(vr) {
			r.Metrics[vr.name+"_pass_s"] = stat.Median(perVariant[v])
		}
	}
	if o.Tracer != nil {
		for _, vr := range variants {
			if vr.ratio != "" {
				r.Layers[vr.ratio] = r.Metrics[vr.name+"_pass_s"] / r.Metrics["inproc_pass_s"]
			}
		}
	}
	r.Layers["workload.evaluated_per_pass"] = float64(evaluated) / float64(n)
	r.Layers["fleet.dispatches_per_pass"] = float64(after.FleetDispatches-before.FleetDispatches) / float64(n)
	r.Layers["fleet.retries"] = float64(after.FleetRetries - before.FleetRetries)
	r.Layers["shard.checkpoints_per_pass"] = float64(f.checkpoints.Load()-ck0) / float64(n)
	r.Layers["shard.partial_kb_per_pass"] = float64(f.transport.bytes.Load()-kb0) / 1024 / float64(n)
	if o.Tracer != nil {
		r.traceOverhead(t.passScaled, traced)
		fleetLayers(o.Tracer.Spans(), r)
		var specs []*workload.Spec
		var curves []*pareto.Curve
		for _, e := range rot {
			specs = append(specs, e.spec)
			curves = append(curves, e.curve)
		}
		if err := probeLayers(ctx, o, r, specs, curves, filepath.Join(o.Dir, "store-probe")); err != nil {
			return nil, err
		}
	}
	r.finish(o.Tracer != nil)
	return r, nil
}

// fleetLayers derives the fleet path's layer timings from the spans of
// fleet requests: each dispatch, the worker's shard run inside it, the
// transfer time between the two, and the coordinator's tail after the
// last dispatch (validation, spool, merge, encode).
func fleetLayers(spans []span.Span, r *Result) {
	kids := span.Children(spans)
	var dispatch, worker, transfer, tail []float64
	for _, s := range spans {
		if s.Name != "client.request" || s.Attr != "fleet" {
			continue
		}
		var lastDispatch, handlerEnd int64
		for _, c := range kids[s.ID] {
			switch c.Name {
			case "coord.handler":
				handlerEnd = c.End
			case "fleet.dispatch":
				dispatch = append(dispatch, float64(c.Dur())/1e6)
				lastDispatch = max(lastDispatch, c.End)
				for _, w := range kids[c.ID] {
					worker = append(worker, float64(w.Dur())/1e6)
					transfer = append(transfer, float64(c.Dur()-w.Dur())/1e6)
				}
			}
		}
		if lastDispatch > 0 && handlerEnd > lastDispatch {
			tail = append(tail, float64(handlerEnd-lastDispatch)/1e6)
		}
	}
	r.Layers["fleet.dispatch_ms"] = stat.Median(dispatch)
	r.Layers["fleet.worker_shard_ms"] = stat.Median(worker)
	r.Layers["fleet.transfer_ms"] = stat.Median(transfer)
	r.Layers["fleet.coord_tail_ms"] = stat.Median(tail)
}
