package bench

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"testing"

	"repro/bench/internal/stat"
)

// refServerEnv makes the test binary serve references instead of running
// tests, so tests measure their references in another process, as
// orobench's workloads do.
const refServerEnv = "OROBENCH_TEST_REF_SERVER"

func TestMain(m *testing.M) {
	if os.Getenv(refServerEnv) == "1" {
		os.Exit(serveRefsOnPipes())
	}
	os.Exit(m.Run())
}

// serveRefsOnPipes answers reference requests read from descriptor 3 with
// replies written to descriptor 4, until the requests end.
func serveRefsOnPipes() int {
	h, err := NewHostRef()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer h.Close()
	if err := ServeRefs(h, os.NewFile(3, "reference requests"), os.NewFile(4, "reference replies")); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// startRefServer starts this test binary as a reference server and
// returns a PipeRef that asks it. The server exits when the test ends.
func startRefServer(t *testing.T) *PipeRef {
	t.Helper()
	reqR, reqW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	repR, repW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), refServerEnv+"=1")
	cmd.Stderr = os.Stderr
	cmd.ExtraFiles = []*os.File{reqR, repW}
	err = cmd.Start()
	reqR.Close()
	repW.Close()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		reqW.Close() // ends the server's request stream
		if err := cmd.Wait(); err != nil {
			t.Errorf("reference server: %v", err)
		}
		repR.Close()
	})
	return NewPipeRef(reqW, repR)
}

// node is a heap object with a pointer, so the collector has to trace it.
type node struct {
	next *node
	pad  [6]int64
}

var allocSink *node

// TestScaledTimeFollowsAllocation checks that a change which only makes
// operations allocate more keeps its whole wall-clock slowdown in scaled
// time. Operations A and B do the same CPU work over the same live heap,
// and B allocates twice as much garbage. Each round times a pass of four
// of each, in alternating order; over the rounds, the median of B's scaled
// slowdown over its wall-clock slowdown must not fall below 1 by more than
// a noise margin. A reference that shared the operations' heap would run
// beside the collections of B's extra garbage, come out slower for B, and
// cancel part of B's slowdown.
func TestScaledTimeFollowsAllocation(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates for several seconds")
	}
	rt := refTimer{ref: startRefServer(t), kind: RefCPU}
	// A live set of 2^18 linked objects (16 MiB) makes every collection
	// trace a long pointer chain.
	live := make([]*node, 1<<18)
	for i := range live {
		live[i] = &node{}
		if i > 0 {
			live[i].next = live[i-1]
		}
	}
	buf := make([]int64, 1<<14)
	work := func(garbageMiB int) func() {
		return func() {
			for i := 0; i < 4; i++ {
				sortKernel(buf, uint64(i+1))
			}
			var head *node
			for i := 0; i < garbageMiB<<20/64; i++ {
				head = &node{next: head}
				if i%1024 == 0 {
					head = nil // short chains, dead at once
				}
			}
			allocSink = head
		}
	}
	var ta, tb tally
	var kept []float64 // per round: B's scaled slowdown over its wall-clock one
	for round := 0; round < 20; round++ {
		passes := []struct {
			t  *tally
			fn func()
		}{{&ta, work(32)}, {&tb, work(64)}}
		if round%2 == 1 {
			passes[0], passes[1] = passes[1], passes[0]
		}
		for _, p := range passes {
			for i := 0; i < 4; i++ {
				d, err := rt.time(p.fn)
				if err != nil {
					t.Fatal(err)
				}
				p.t.add(d, "")
			}
			p.t.endPass(false)
		}
		last := func(xs []float64) float64 { return xs[len(xs)-1] }
		kept = append(kept, last(tb.passScaled)/last(ta.passScaled)/(last(tb.passWall)/last(ta.passWall)))
	}
	runtime.KeepAlive(live)
	wall := stat.Median(tb.passWall) / stat.Median(ta.passWall)
	t.Logf("B/A wall %.3f; scaled over wall slowdown, median of %d rounds %.3f; median reference A %.3f ms, B %.3f ms",
		wall, len(kept), stat.Median(kept), stat.Median(ta.refs), stat.Median(tb.refs))
	if wall < 1.2 {
		t.Fatalf("B is only %.2fx slower than A on the wall clock; the test cannot tell the reference apart", wall)
	}
	// The margin covers the spread of a ratio of two passes' reference
	// medians on a noisy two-core host.
	if k := stat.Median(kept); k < 0.95 {
		t.Errorf("B keeps only %.3f of its wall-clock slowdown in scaled time: the reference cancels part of it", k)
	}
}
