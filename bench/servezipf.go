package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/bench/internal/load"
	"repro/bench/internal/span"
	"repro/bench/internal/stat"
	"repro/internal/cliutil"
	"repro/internal/einsum"
	"repro/internal/llm"
	"repro/internal/pareto"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/workload"
)

// serve-zipf traffic shape. The Zipf exponent, the miss rate and the open
// loop's rate are assumptions: no public trace of a curve service gives
// them.
const (
	zipfS     = 1.1
	missRate  = 0.01 // share of requests for never-seen shapes
	openRate  = 2000 // open-loop arrivals per second
	senders   = 2    // sending goroutines and connections (one per core)
	blockSize = 1000 // requests per capacity-phase pass
	// passParts is how many reference-paired sub-blocks a pass is sent
	// in, so each pass is scaled by the median of that many references.
	passParts = 4
	// catalogSeed fixes the catalog's popularity order: it belongs to the
	// service's content, the same for every run, while the run's seed
	// draws the traffic over it. An order drawn per seed would move which
	// specs are hot, and with them response sizes and pass times.
	catalogSeed = 1
	// shortCatalog is the catalog prefix a smoke run serves.
	shortCatalog = 64
)

// gpt3Family is the GPT-3 model family of Brown et al., "Language Models
// are Few-Shot Learners" (NeurIPS 2020), Table 2.1: every row whose head
// count times head size equals d_model (the XL and 13B rows do not), with
// the 4 x d_model FFN and the 2,048-token context all rows share. The 6.7B
// row is internal/llm's GPT3_6_7B, the model of the paper's Sec. VII case
// study and of cmd/curvewarm's model zoo.
var gpt3Family = []llm.Config{
	{Name: "GPT-3-Small", D: 768, Heads: 12, HeadDim: 64, Hidden: 3072},
	{Name: "GPT-3-Medium", D: 1024, Heads: 16, HeadDim: 64, Hidden: 4096},
	{Name: "GPT-3-Large", D: 1536, Heads: 16, HeadDim: 96, Hidden: 6144},
	{Name: "GPT-3-2.7B", D: 2560, Heads: 32, HeadDim: 80, Hidden: 10240},
	llm.GPT3_6_7B(),
	{Name: "GPT-3-175B", D: 12288, Heads: 96, HeadDim: 128, Hidden: 49152},
}

// The serving grid is an assumption, not taken from a trace: prefill of
// one full-context sequence and of the case study's batch of 16, and
// decode steps of 1 to 16 sequences at context lengths of 128 to 2,048.
const contextLen = 2048

var (
	prefillBatches = []int64{1, 16}
	decodeBatches  = []int64{1, 2, 4, 8, 16}
	decodeContexts = []int64{128, 256, 512, 1024, 2048}
)

// catalogEntry is one workload the serve-zipf catalog serves.
type catalogEntry struct {
	body   []byte
	spec   *workload.Spec
	digest string
	curve  *pareto.Curve // in-process derivation, filled by the warm
	want   []byte        // curve's JSON, as the server must return it
}

// catalog is the serve-zipf catalog: the distinct requests for the layer
// shapes of the GPT-3 family's transformer block (Fig. 19, as internal/llm
// builds it) over the serving grid, so the mix of GEMMs, attention BMMs
// and fusion chains follows from the block's structure. Prefill runs
// batch x 2,048 tokens through the block GEMMs (blockGEMMs). Its attention
// BMMs are left out: each takes 50-160 ms to derive, which would make the
// run's three set-ups several times longer, and derive-conv's Fig. 13 BMMs
// cover that cost. A decode step runs one token per sequence through the
// block GEMMs and attends over the context (decodeAttention).
func catalog() ([]catalogEntry, error) {
	var reqs []serve.Request
	for _, m := range gpt3Family {
		for _, b := range prefillBatches {
			reqs = append(reqs, blockGEMMs(m, b*contextLen)...)
		}
		for _, b := range decodeBatches {
			reqs = append(reqs, blockGEMMs(m, b)...)
			for _, s := range decodeContexts {
				reqs = append(reqs, decodeAttention(m, b, s, false), decodeAttention(m, b, s, true))
			}
		}
	}
	seen := map[string]bool{}
	var out []catalogEntry
	for i := range reqs {
		e, err := newEntry(&reqs[i])
		if err != nil {
			return nil, err
		}
		if !seen[e.digest] {
			seen[e.digest] = true
			out = append(out, e)
		}
	}
	return out, nil
}

// blockGEMMs are the requests for model m's block GEMMs at l tokens: the
// projection GEMM (Q, K, V and the output projection share its shape), the
// two FFN GEMMs, and the FFN's tiled-fusion chain Final_proj -> mm_0 ->
// mm_1.
func blockGEMMs(m llm.Config, l int64) []serve.Request {
	m.Batch, m.SeqLen = 1, l
	return []serve.Request{
		{GEMM: &serve.GEMMSpec{M: l, K: m.D, N: m.D}},
		{GEMM: &serve.GEMMSpec{M: l, K: m.D, N: m.Hidden}},
		{GEMM: &serve.GEMMSpec{M: l, K: m.Hidden, N: m.D}},
		{Chain: &serve.ChainSpec{Einsums: []string{m.FinalProj().String(), m.MM0().String(), m.MM1().String()}}},
	}
}

// decodeAttention is the request for a decode step's attention BMM in
// model m: the heads of b sequences, one query row each, over s context
// tokens; the score BMM, or with value the BMM applying scores to values.
func decodeAttention(m llm.Config, b, s int64, value bool) serve.Request {
	e := einsum.BMM("bmm_QK", b*m.Heads, 1, m.HeadDim, s)
	if value {
		e = einsum.BMM("bmm_QKV", b*m.Heads, 1, s, m.HeadDim)
	}
	return serve.Request{Einsum: e.String()}
}

// newEntry encodes req and resolves its Spec and identity digest.
func newEntry(req *serve.Request) (catalogEntry, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return catalogEntry{}, err
	}
	s, err := specFor(req)
	if err != nil {
		return catalogEntry{}, err
	}
	_, digest, err := store.Identity(s)
	return catalogEntry{body: body, spec: s, digest: digest}, err
}

// traffic draws requests: Zipf(s) over the catalog in a fixed popularity
// order (an assumption: no trace ranks these shapes), plus missRate
// never-seen shapes, each drawn once, in an order the run's seed shuffles.
// A never-seen shape is a decode step's attention at a context length
// outside the grid, which every further token of a conversation brings.
type traffic struct {
	cat    []catalogEntry
	zipf   *load.Zipf
	hot    []int // popularity rank -> catalog index
	misses []int // shuffled indices of candidate never-seen shapes
	used   int
	seen   map[string]bool // digests of the catalog and of drawn misses
}

func newTraffic(seed uint64, cat []catalogEntry) *traffic {
	seen := make(map[string]bool, len(cat))
	for _, e := range cat {
		seen[e.digest] = true
	}
	return &traffic{
		cat:    cat,
		zipf:   load.NewZipf(len(cat), zipfS),
		hot:    rng(catalogSeed, streamCatalog).Perm(len(cat)),
		misses: rng(seed, streamMiss).Perm(2 * contextLen * len(decodeBatches) * len(gpt3Family)),
		seen:   seen,
	}
}

// nextMiss returns the next never-seen shape. Candidate k picks the BMM,
// a context length from 1 to contextLen, the batch and the model;
// candidates in the catalog or drawn before are skipped.
func (t *traffic) nextMiss() (catalogEntry, error) {
	for t.used < len(t.misses) {
		k := t.misses[t.used]
		t.used++
		value := k%2 == 1
		k /= 2
		s := int64(k%contextLen) + 1
		k /= contextLen
		req := decodeAttention(gpt3Family[k/len(decodeBatches)], decodeBatches[k%len(decodeBatches)], s, value)
		e, err := newEntry(&req)
		if err != nil {
			return catalogEntry{}, err
		}
		if !t.seen[e.digest] {
			t.seen[e.digest] = true
			return e, nil
		}
	}
	return catalogEntry{}, errors.New("bench: ran out of never-seen shapes")
}

// request is one generated request: a catalog index, or -1 and the body
// of a never-seen shape.
type request struct {
	cat  int
	miss catalogEntry
}

// draw generates n requests from g: exactly round(n*missRate) never-seen
// shapes at seeded positions, so every pass carries the same share of
// misses (a per-request coin would give a 250-request block 2.5 ± 1.6 of
// them, and misses dominate a block's time), and Zipf draws elsewhere.
func (t *traffic) draw(g *rand.Rand, n int) ([]request, error) {
	out := make([]request, n)
	miss := make([]bool, n)
	for _, i := range g.Perm(n)[:int(math.Round(float64(n)*missRate))] {
		miss[i] = true
	}
	for i := range out {
		if !miss[i] {
			out[i].cat = t.hot[t.zipf.Sample(g)]
			continue
		}
		e, err := t.nextMiss()
		if err != nil {
			return nil, err
		}
		out[i] = request{cat: -1, miss: e}
	}
	return out, nil
}

// zipfRun is one serve-zipf run's live state.
type zipfRun struct {
	r      *Result
	srv    *server
	client *http.Client
	tf     *traffic
	// missReplies collects the curves served for never-seen shapes, to
	// check against in-process derivations after the timed phases.
	mu          sync.Mutex
	missReplies []missReply
}

type missReply struct {
	e     catalogEntry
	reply curveReply
}

// outcome is one request's result, tallied after its phase.
type outcome struct {
	cached, mismatch bool
	err              error
}

// send issues q, checks the reply and records spans when tr is non-nil.
func (z *zipfRun) send(q request, tr *span.Tracer) outcome {
	id := tr.ID()
	t := time.Now()
	e := q.miss
	if q.cat >= 0 {
		e = z.tf.cat[q.cat]
	}
	reply, err := postCurve(z.client, z.srv.url, e.body, id)
	attr := "hit"
	if !reply.Cached {
		attr = "miss"
	}
	tr.Add(id, 0, "client.request", attr, t, time.Now())
	if err != nil {
		return outcome{err: err}
	}
	out := outcome{cached: reply.Cached}
	switch {
	case reply.Digest != e.digest:
		out.mismatch = true
	case q.cat >= 0:
		out.mismatch = !bytes.Equal(reply.Curve, e.want)
	default:
		z.mu.Lock()
		z.missReplies = append(z.missReplies, missReply{e, reply})
		z.mu.Unlock()
	}
	return out
}

// tally counts a phase's outcomes into the result.
func (z *zipfRun) tally(outs []outcome) {
	for _, o := range outs {
		switch {
		case o.err != nil:
			z.r.check(false)
		case o.mismatch:
			z.r.mismatch()
		default:
			z.r.check(true)
		}
	}
}

// closedBlock sends reqs closed-loop from the senders and returns each
// request's latency.
func (z *zipfRun) closedBlock(reqs []request, tr *span.Tracer) []time.Duration {
	outs := make([]outcome, len(reqs))
	lat := load.ClosedLoop(len(reqs), senders, func(i int) { outs[i] = z.send(reqs[i], tr) })
	z.tally(outs)
	return lat
}

// setupServe builds the catalog, warms a fresh store with it through
// cliutil.StoreRun (deriving every entry in-process), and starts a
// default-config server on that store.
func setupServe(ctx context.Context, o Options, dir string) ([]catalogEntry, *server, error) {
	cat, err := catalog()
	if err != nil {
		return nil, nil, err
	}
	if o.Short {
		cat = cat[:shortCatalog]
	}
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	for i := range cat {
		res, err := cliutil.StoreRun(ctx, st, cat[i].spec, workload.Exec{})
		if err != nil {
			return nil, nil, err
		}
		cat[i].curve = res.Curve
		if cat[i].want, err = json.Marshal(res.Curve); err != nil {
			return nil, nil, err
		}
	}
	srv, err := startServer(serve.Config{StoreDir: dir}, o.Tracer, "serve.handler")
	return cat, srv, err
}

func runServeZipf(ctx context.Context, o Options) (*Result, error) {
	r := newResult("serve-zipf")
	block := blockSize
	if o.Short {
		block = 200
	}
	// Set-up derives the whole catalog and starts a server: the mixed
	// reference. The timed requests are nearly all cache hits, loopback
	// HTTP round trips and JSON with little derivation: the loopback
	// reference. With the mixed one their wall time moved 1.4 times as much
	// as the reference across runs, and scaled times kept that share of
	// the host's drift.
	hs, h := o.timer(RefMixed), o.timer(RefLoopback)
	var setups []op
	var cat []catalogEntry
	var srv *server
	for k := 0; k < setupRepeats; k++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		var err error
		d, rerr := hs.timeAfter(setupRefs, func() {
			cat, srv, err = setupServe(ctx, o, filepath.Join(o.Dir, fmt.Sprintf("store-%d", k)))
		})
		if err = errors.Join(rerr, err); err != nil {
			if srv != nil {
				srv.stop()
			}
			return nil, err
		}
		setups = append(setups, d)
	}
	defer srv.stop()
	r.setSetup(setups)
	r.Samples["catalog"] = len(cat)

	z := &zipfRun{r: r, srv: srv, client: newClient(senders), tf: newTraffic(o.Seed, cat)}
	defer z.client.CloseIdleConnections()

	// Warm-up: untimed closed-loop traffic that fills the memory LRU.
	warm := rng(o.Seed, streamWarm)
	for start := time.Now(); time.Since(start) < o.Duration*10/100; {
		reqs, err := z.tf.draw(warm, block)
		if err != nil {
			return nil, err
		}
		z.closedBlock(reqs, nil)
	}

	before := srv.srv.Snapshot()
	sampler := startSampler(srv.srv, o.Tracer != nil)
	defer sampler.halt()

	// Open loop: Poisson arrivals, each timed from its due time. A quarter
	// of the run gives its detail metrics 10,000 samples in a 20 s run; the
	// end-to-end metrics come from the closed loop, which gets the rest.
	og := rng(o.Seed, streamOpen)
	due := load.Arrivals(og, openRate, o.Duration*25/100)
	reqs, err := z.tf.draw(og, len(due))
	if err != nil {
		return nil, err
	}
	outs := make([]outcome, len(reqs))
	open := load.OpenLoop(due, senders, func(i int) { outs[i] = z.send(reqs[i], o.Tracer) })
	z.tally(outs)
	var lat, miss, late []float64
	for i, d := range open.Latency {
		lat = append(lat, ms(d))
		late = append(late, ms(open.Late[i]))
		if outs[i].err == nil && !outs[i].cached {
			miss = append(miss, ms(d))
		}
	}
	r.Metrics["open_p50_ms"] = stat.Median(lat)
	if p, ok := stat.TailPercentile(len(lat)); ok {
		r.Metrics["open_tail_ms"] = stat.Percentile(lat, p)
		r.Notes["open_tail_ms"] = fmt.Sprintf("p%g of %d", p, len(lat))
	}
	r.Metrics["miss_p50_ms"] = stat.Median(miss)
	r.Samples["open_loop"] = len(due)
	r.Samples["open_loop_misses"] = len(miss)
	r.Layers["gen.late_p95_ms"] = stat.Percentile(late, 95)
	if r.Layers["gen.late_p95_ms"] > 2 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("generator late p95 %.2fms > 2ms", r.Layers["gen.late_p95_ms"]))
	}
	if g := open.BacklogGrowth(); g > 5 {
		r.Invalid = append(r.Invalid, fmt.Sprintf("open-loop backlog grew by %.1f requests", g))
	}

	// Capacity: closed-loop passes of block requests, sent in passParts
	// sub-blocks each paired with a reference; per-request latencies are
	// scaled with their pass.
	cg := rng(o.Seed, streamClosed)
	t := &tally{}
	var traced []float64
	var sent int
	var wall time.Duration
	m0 := readMeter()
	start := time.Now()
	for i := 0; i < o.minPasses() || time.Since(start) < o.Duration*65/100; i++ {
		tr := o.traced(i)
		reqs, err := z.tf.draw(cg, block)
		if err != nil {
			return nil, err
		}
		for part := 0; part < passParts; part++ {
			sub := reqs[part*block/passParts : (part+1)*block/passParts]
			var lat []time.Duration
			d, err := h.time(func() { lat = z.closedBlock(sub, tr) })
			if err != nil {
				return nil, err
			}
			t.add(d, "request", lat...)
			if tr == nil {
				sent += len(sub)
				wall += d.wall
			}
		}
		if scaled, _ := t.endPass(tr != nil); tr != nil {
			traced = append(traced, scaled)
		}
	}
	passes := len(t.passScaled) + len(traced)
	r.runtimeLayers(m0, readMeter(), passes)
	r.setTimes(t)
	r.Metrics["serve_rps"] = float64(sent) / wall.Seconds()
	sampler.stop(r)
	after := srv.srv.Snapshot()
	requests := float64(len(due) + block*passes)
	hits, lookups := after.CacheHits-before.CacheHits, after.CacheHits+after.CacheMisses-before.CacheHits-before.CacheMisses
	r.Layers["serve.mem_hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	r.Layers["store.hit_ratio"] = float64(after.StoreHits-before.StoreHits) / float64(max(lookups-hits, 1))
	r.Layers["serve.derivations_per_pass"] = float64(after.Derivations-before.Derivations) / requests * float64(block)
	r.Layers["serve.saturated"] = float64(after.Saturated - before.Saturated)
	r.Layers["workload.evaluated_per_pass"] = float64(after.MappingsEvaluated-before.MappingsEvaluated) / requests * float64(block)

	if err := z.checkMisses(ctx); err != nil {
		return nil, err
	}
	if o.Tracer != nil {
		r.traceOverhead(t.passScaled, traced)
		handlerLayers(o.Tracer.Spans(), r)
		if err := z.probes(ctx, o, filepath.Join(o.Dir, fmt.Sprintf("store-%d", setupRepeats-1))); err != nil {
			return nil, err
		}
	}
	r.finish(o.Tracer != nil)
	return r, nil
}

// checkMisses derives every never-seen shape the server answered
// in-process and compares the curves.
func (z *zipfRun) checkMisses(ctx context.Context) error {
	for _, m := range z.missReplies {
		res, err := m.e.spec.Run(ctx, workload.Exec{})
		if err != nil {
			return err
		}
		want, err := json.Marshal(res.Curve)
		if err != nil {
			return err
		}
		if bytes.Equal(want, m.reply.Curve) {
			z.r.check(true)
		} else {
			z.r.mismatch()
		}
	}
	z.r.Samples["misses_checked"] = len(z.missReplies)
	return nil
}

// probes runs the traced-run layer probes on a seeded sample of the
// catalog's bound specs, with the store probe in the server's own store
// directory.
func (z *zipfRun) probes(ctx context.Context, o Options, dir string) error {
	var specs []*workload.Spec
	var curves []*pareto.Curve
	for _, i := range rng(o.Seed, streamProbe).Perm(len(z.tf.cat)) {
		if e := z.tf.cat[i]; e.spec.Kind == shard.KindBound && len(specs) < 16 {
			specs = append(specs, e.spec)
			curves = append(curves, e.curve)
		}
	}
	return probeLayers(ctx, o, z.r, specs, curves, dir)
}

// handlerLayers derives the served-request layer timings from the spans:
// handler time for memory/disk hits and for misses, and the client's own
// time around the handler.
func handlerLayers(spans []span.Span, r *Result) {
	kids := span.Children(spans)
	var hit, miss, client []float64
	for _, s := range spans {
		if s.Name != "client.request" {
			continue
		}
		for _, h := range kids[s.ID] {
			if s.Attr == "hit" {
				hit = append(hit, float64(h.Dur())/1e3)
			} else {
				miss = append(miss, float64(h.Dur())/1e6)
			}
		}
		client = append(client, float64(span.SelfTime(s, kids[s.ID]))/1e3)
	}
	r.Layers["serve.handler_hit_us"] = stat.Median(hit)
	r.Layers["serve.handler_miss_ms"] = stat.Median(miss)
	r.Layers["serve.client_overhead_us"] = stat.Median(client)
}

// sampler polls serve.Server.Snapshot every 10 ms during the timed
// phases of a traced run, for the mean admission queue depth and the
// mean number of derivations holding a slot.
type sampler struct {
	stopc        chan struct{}
	done         chan struct{}
	once         sync.Once
	queue, slots float64
	n            int
}

func startSampler(s *serve.Server, on bool) *sampler {
	sm := &sampler{stopc: make(chan struct{}), done: make(chan struct{})}
	if !on {
		close(sm.done)
		return sm
	}
	go func() {
		defer close(sm.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-sm.stopc:
				return
			case <-tick.C:
				st := s.Snapshot()
				sm.queue += float64(st.QueueDepth)
				sm.slots += float64(st.InFlight)
				sm.n++
			}
		}
	}()
	return sm
}

// halt ends sampling and waits for the sampling goroutine; it may be
// called more than once.
func (sm *sampler) halt() {
	sm.once.Do(func() { close(sm.stopc) })
	<-sm.done
}

// stop ends sampling and records the means of a traced run.
func (sm *sampler) stop(r *Result) {
	sm.halt()
	if sm.n > 0 {
		r.Layers["serve.queue_depth_mean"] = sm.queue / float64(sm.n)
		r.Layers["serve.in_flight_mean"] = sm.slots / float64(sm.n)
		r.Samples["snapshots"] = sm.n
	}
}
