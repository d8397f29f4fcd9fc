package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/bench/internal/stat"
)

// The benchmark runs on shared hosts whose speed drifts by tens of percent
// over minutes, for CPU work and even more for loopback and system-call
// work. A median over one run cannot cancel drift that lasts longer than
// the run, so every timed operation is paired with a reference measured
// just before it: fixed work that belongs to the benchmark, never to the
// code under test. The end-to-end metrics report each pass's operations
// scaled by nominal/median(references of the pass) — the time they would
// take on a host where the reference takes its nominal duration — and the
// raw wall times are kept as detail metrics. CPU times are scaled the same
// way by the reference's own CPU time: when the hypervisor takes the
// host's cores away, wall times stretch but CPU times do not, and when
// the cores run slower, both stretch.
//
// The reference runs in another process (orobench's parent process, idle
// while a workload child runs), so it shares neither the workload's heap
// nor its Go runtime, and the workload finishes a garbage collection
// before asking for it, so no collection of the workload's garbage runs
// beside it. TestScaledTimeFollowsAllocation checks that an operation
// allocating more keeps its whole wall-clock slowdown in scaled time.
// Background CPU work that code under test leaves running between
// operations still competes with the reference for the host's cores, and
// is partly cancelled.

// refNominal is about what each part of the reference takes on the idle
// two-core host the benchmark was written on, and refNominalCPU about the
// CPU time of both parts there, so scaled and measured times read alike
// on that host.
const (
	refNominal    = 5 * time.Millisecond
	refNominalCPU = 17500 * time.Microsecond
)

// RefSample is one measurement of the reference: the wall time of each
// part and the CPU time of both.
type RefSample struct {
	CPU, Loopback, CPUTime time.Duration
}

// RefKind selects the part of the reference that scales a workload's wall
// times, matched to what its timed operations spend their time on.
type RefKind int

const (
	// RefCPU is the sort kernel on both cores, for derivations.
	RefCPU RefKind = iota
	// RefLoopback is loopback HTTP round trips from both senders, for
	// requests a server answers from its caches.
	RefLoopback
	// RefMixed is the geometric mean of the two, so a slowdown of either
	// counts equally, for requests a server derives.
	RefMixed
)

// wall is the reference wall time of kind in s.
func (s RefSample) wall(kind RefKind) time.Duration {
	switch kind {
	case RefCPU:
		return s.CPU
	case RefLoopback:
		return s.Loopback
	}
	return time.Duration(math.Sqrt(float64(s.CPU) * float64(s.Loopback)))
}

// HostRef runs the reference in the calling process.
type HostRef struct {
	bufs [2][]int64
	// echo is a loopback HTTP server answering every POST with a fixed
	// JSON body, and client the two-connection client that calls it.
	echo    *http.Server
	echoURL string
	client  *http.Client
	done    chan struct{}
}

// NewHostRef builds a reference of CPU work and loopback HTTP round trips.
// A part for fsync'd writes was tried and left out: disk latency on the
// shared host is noisy and barely correlated with the workloads' times, so
// it made scaled times worse (serve-zipf spread 4.5% -> 20%).
func NewHostRef() (*HostRef, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	body := echoBody()
	h := &HostRef{
		bufs: [2][]int64{make([]int64, 1<<15), make([]int64, 1<<15)},
		echo: &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
		})},
		echoURL: "http://" + ln.Addr().String(),
		client:  newClient(senders),
		done:    make(chan struct{}),
	}
	go func() {
		defer close(h.done)
		_ = h.echo.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return h, nil
}

// echoBody is a response shaped like a served curve: a digest and a
// frontier of 40 points.
func echoBody() []byte {
	type point struct{ BufferBytes, AccessBytes int64 }
	pts := make([]point, 40)
	for i := range pts {
		pts[i] = point{int64(1024 << (i % 20)), int64(1 << 40 >> (i % 30))}
	}
	body, _ := json.Marshal(map[string]any{ // a literal of plain types cannot fail
		"digest": "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef",
		"cached": true, "evaluated": 123456, "curve": map[string]any{"points": pts},
	})
	return body
}

// Close stops the echo server and waits for it.
func (h *HostRef) Close() {
	h.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = h.echo.Shutdown(ctx) // a timeout only means connections were cut
	<-h.done
}

// Measure runs the reference once: the CPU kernel on both cores, then
// loopback round trips from both senders. The CPU time is this process's,
// which does nothing else meanwhile.
func (h *HostRef) Measure() RefSample {
	part := func(f func(g int)) time.Duration {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				f(g)
			}(g)
		}
		wg.Wait()
		return time.Since(start)
	}
	c0 := cpuTime()
	s := RefSample{
		CPU:      part(func(g int) { sortKernel(h.bufs[g], uint64(g+1)) }),
		Loopback: part(func(int) { h.roundTrips(45) }),
	}
	s.CPUTime = cpuTime() - c0
	return s
}

// sortKernel fills buf from a xorshift generator and sorts it, twice:
// branchy integer work over a cache-sized array, like a derivation's inner
// loops, with no allocation.
func sortKernel(buf []int64, seed uint64) {
	x := seed*0x9E3779B97F4A7C15 | 1
	for round := 0; round < 2; round++ {
		for i := range buf {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[i] = int64(x >> 1)
		}
		slices.Sort(buf)
	}
}

// roundTrips posts n small requests to the echo server and decodes each
// reply; errors only make the reference shorter, so they are ignored.
func (h *HostRef) roundTrips(n int) {
	req := []byte(`{"gemm":{"m":256,"k":256,"n":256}}`)
	for i := 0; i < n; i++ {
		resp, err := h.client.Post(h.echoURL, "application/json", bytes.NewReader(req))
		if err != nil {
			continue
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var reply curveReply
		_ = json.Unmarshal(data, &reply)
	}
}

// ServeRefs answers the reference requests read from req with measurements
// by h written to reply, until req ends. A request is one byte; its answer
// is a line of the sample's CPU, Loopback and CPUTime in nanoseconds.
func ServeRefs(h *HostRef, req io.Reader, reply io.Writer) error {
	r := bufio.NewReader(req)
	for {
		if _, err := r.ReadByte(); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("bench: reading reference request: %w", err)
		}
		s := h.Measure()
		if _, err := fmt.Fprintf(reply, "%d %d %d\n", s.CPU, s.Loopback, s.CPUTime); err != nil {
			return fmt.Errorf("bench: answering reference request: %w", err)
		}
	}
}

// PipeRef asks a ServeRefs at the other end of a pair of pipes, so the
// reference runs in another process than the workload.
type PipeRef struct {
	req   io.Writer
	reply *bufio.Reader
}

// NewPipeRef returns a PipeRef that writes its requests to req and reads
// the answers from reply.
func NewPipeRef(req io.Writer, reply io.Reader) *PipeRef {
	return &PipeRef{req: req, reply: bufio.NewReader(reply)}
}

// Measure has the other end run the reference once.
func (p *PipeRef) Measure() (RefSample, error) {
	var s RefSample
	if _, err := p.req.Write([]byte{'r'}); err != nil {
		return s, fmt.Errorf("bench: requesting a reference: %w", err)
	}
	line, err := p.reply.ReadString('\n')
	if err != nil {
		return s, fmt.Errorf("bench: reading a reference: %w", err)
	}
	if _, err := fmt.Sscan(line, &s.CPU, &s.Loopback, &s.CPUTime); err != nil {
		return s, fmt.Errorf("bench: reading a reference %q: %w", line, err)
	}
	return s, nil
}

// refTimer pairs timed operations with references whose wall time is of
// one kind.
type refTimer struct {
	ref  *PipeRef
	kind RefKind
}

// op is one timed operation: its wall and CPU time, and the wall and CPU
// time of the reference measured just before it.
type op struct{ wall, cpu, ref, refCPU time.Duration }

// time measures the reference, then fn.
func (h refTimer) time(fn func()) (op, error) { return h.timeAfter(1, fn) }

// timeAfter measures the reference n times, then fn; the op's reference
// is the median of the n. Set-ups, which are few, use several. Each
// reference starts after a completed garbage collection, so collections
// of the workload's heap neither run beside the reference nor carry over
// from one operation into the next.
func (h refTimer) timeAfter(n int, fn func()) (op, error) {
	walls, cpus := make([]time.Duration, n), make([]time.Duration, n)
	for i := range walls {
		runtime.GC()
		s, err := h.ref.Measure()
		if err != nil {
			return op{}, err
		}
		walls[i], cpus[i] = s.wall(h.kind), s.CPUTime
	}
	c0, t := cpuTime(), time.Now()
	fn()
	return op{wall: time.Since(t), cpu: cpuTime() - c0, ref: median(walls), refCPU: median(cpus)}, nil
}

func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return time.Duration(stat.Median(xs) * float64(time.Second))
}

// scale is the scale of operations whose references were refs: the
// nominal over their median.
func scale(nominal time.Duration, refs []time.Duration) float64 {
	return nominal.Seconds() / median(refs).Seconds()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tally accumulates timed operations pass by pass. A pass is scaled by
// the median of the references measured during it: close enough in time
// to follow host drift, without passing on the jitter of any single short
// reference.
type tally struct {
	cur []taggedOp
	// Untraced passes: scaled, wall and scaled-CPU totals.
	passScaled, passWall, passCPU []float64
	// Untraced operations: scaled latencies in ms by operation name, all
	// of them, and their wall latencies.
	byName             map[string][]float64
	opsScaled, opsWall []float64
	// Reference wall and CPU times in ms, of all operations.
	refs, refsCPU []float64
}

type taggedOp struct {
	op
	name string
	lats []time.Duration
}

// add records one operation of the current pass. name identifies the
// operation for the latency metrics ("" records none); lats, when given,
// are the latencies of the requests inside it, recorded instead of its
// own.
func (t *tally) add(o op, name string, lats ...time.Duration) {
	t.cur = append(t.cur, taggedOp{o, name, lats})
	t.refs = append(t.refs, ms(o.ref))
	t.refsCPU = append(t.refsCPU, ms(o.refCPU))
}

// endPass closes the current pass and returns its scaled time and the
// factor that scaled it; a traced pass is returned but not recorded.
func (t *tally) endPass(traced bool) (scaled, k float64) {
	refs, refsCPU := make([]time.Duration, len(t.cur)), make([]time.Duration, len(t.cur))
	for i, o := range t.cur {
		refs[i], refsCPU[i] = o.ref, o.refCPU
	}
	k, kc := scale(refNominal, refs), scale(refNominalCPU, refsCPU)
	var wall, cpu float64
	for _, o := range t.cur {
		scaled += k * o.wall.Seconds()
		wall += o.wall.Seconds()
		cpu += kc * o.cpu.Seconds()
		if traced || o.name == "" {
			continue
		}
		lats := o.lats
		if lats == nil {
			lats = []time.Duration{o.wall}
		}
		if t.byName == nil {
			t.byName = map[string][]float64{}
		}
		for _, l := range lats {
			t.byName[o.name] = append(t.byName[o.name], k*ms(l))
			t.opsScaled = append(t.opsScaled, k*ms(l))
			t.opsWall = append(t.opsWall, ms(l))
		}
	}
	t.cur = t.cur[:0]
	if !traced {
		t.passScaled = append(t.passScaled, scaled)
		t.passWall = append(t.passWall, wall)
		t.passCPU = append(t.passCPU, cpu)
	}
	return scaled, k
}

// latency is the geometric mean, over the distinct operations, of each
// operation's median scaled latency in ms.
func (t *tally) latency() float64 {
	if len(t.byName) == 0 {
		return 0
	}
	var logs float64
	for _, xs := range t.byName {
		logs += math.Log(stat.Median(xs))
	}
	return math.Exp(logs / float64(len(t.byName)))
}
