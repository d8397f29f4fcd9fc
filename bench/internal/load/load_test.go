package load

import (
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestZipfAndArrivalsAreSeedDeterministic(t *testing.T) {
	draw := func(seed uint64) ([]int, []time.Duration) {
		rng := rand.New(rand.NewPCG(seed, 1))
		z := NewZipf(512, 1.1)
		ranks := make([]int, 1000)
		for i := range ranks {
			ranks[i] = z.Sample(rng)
		}
		return ranks, Arrivals(rng, 2000, 200*time.Millisecond)
	}
	r1, a1 := draw(7)
	r2, a2 := draw(7)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(a1, a2) {
		t.Fatal("same seed gave different Zipf ranks or arrivals")
	}
	r3, a3 := draw(8)
	if reflect.DeepEqual(r1, r3) || reflect.DeepEqual(a1, a3) {
		t.Fatal("different seeds gave identical traffic")
	}
	// Zipf(1.1) over 512 ranks puts roughly a fifth of the mass on rank 0.
	var top int
	for _, r := range r1 {
		if r == 0 {
			top++
		}
	}
	if top < 100 || top > 300 {
		t.Errorf("rank 0 drawn %d/1000 times, want about 200", top)
	}
	// 2000 req/s over 200 ms is about 400 arrivals, in increasing order.
	if len(a1) < 300 || len(a1) > 500 {
		t.Errorf("%d arrivals in 200ms at 2000/s", len(a1))
	}
	for i := 1; i < len(a1); i++ {
		if a1[i] < a1[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
}

// TestOpenLoopTimesFromDueTime stalls the whole server for 50 ms on one
// request. Both senders block behind the stall, so requests that fall due
// during it wait in the generator's queue; timed from their due time (not
// from when a sender picked them up) they must show most of the stall.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	const stallAt = 40
	var mu sync.Mutex
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if served.Add(1) == stallAt {
			time.Sleep(50 * time.Millisecond)
		}
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	due := make([]time.Duration, 200)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond // 1000 req/s
	}
	var failed atomic.Int64
	o := OpenLoop(due, 2, func(i int) {
		resp, err := client.Get(srv.URL)
		if err != nil {
			failed.Add(1)
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	})
	if n := failed.Load(); n > 0 {
		t.Fatalf("%d requests failed", n)
	}
	// Requests due 10-20 ms after the stall began waited at least 30 ms
	// of it; a loop timing from send time would report them as fast.
	var worst time.Duration
	for i := stallAt + 10; i < stallAt+20; i++ {
		worst = max(worst, o.Latency[i])
	}
	if worst < 25*time.Millisecond {
		t.Errorf("requests due during a 50ms stall report at most %v latency; the stall is hidden", worst)
	}
	var peak int
	for _, b := range o.Backlog {
		peak = max(peak, b)
	}
	if peak < 10 {
		t.Errorf("backlog peaked at %d during a 50ms stall at 1000 req/s", peak)
	}
}

func TestClosedLoopRunsEveryRequestOnce(t *testing.T) {
	var calls [100]atomic.Int32
	lat := ClosedLoop(100, 2, func(i int) { calls[i].Add(1) })
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("request %d ran %d times", i, n)
		}
	}
	if len(lat) != 100 {
		t.Errorf("closed loop recorded %d latencies, want 100", len(lat))
	}
}
