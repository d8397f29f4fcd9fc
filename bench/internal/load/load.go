// Package load generates benchmark traffic: a Zipf popularity law over a
// catalog, Poisson arrival schedules, and open- and closed-loop runners
// that run a request function from a fixed number of sending goroutines.
// Callers record each request's outcome themselves; the runners own only
// the timing.
//
// The open loop times every request from the moment it was due, not from
// when a sender got to it, so a stall that delays later requests shows in
// their latency instead of silently thinning the load.
package load

import (
	"math"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Zipf samples ranks 0..n-1 with probability proportional to 1/(rank+1)^s.
type Zipf struct{ cdf []float64 }

// NewZipf builds the cumulative table of a Zipf law over n ranks.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	var sum float64
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return min(sort.SearchFloat64s(z.cdf, u), len(z.cdf)-1)
}

// Arrivals returns the due offsets of a Poisson process at rate requests
// per second over a window of length d.
func Arrivals(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var due []time.Duration
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return due
		}
		due = append(due, off)
	}
}

// Open is the outcome of an open-loop phase. Slices are indexed by request.
type Open struct {
	// Latency runs from the request's due time to its completion.
	Latency []time.Duration
	// Late is how long after its due time the generator dispatched it.
	Late []time.Duration
	// Backlog is the number of dispatched requests no sender had picked
	// up yet at the moment each request was dispatched.
	Backlog []int
}

// BacklogGrowth returns the mean backlog over the last quarter of the
// phase minus the mean over the first quarter: near zero when the system
// keeps up with the arrival rate, growing when it does not.
func (o Open) BacklogGrowth() float64 {
	q := len(o.Backlog) / 4
	if q == 0 {
		return 0
	}
	mean := func(b []int) float64 {
		var s float64
		for _, v := range b {
			s += float64(v)
		}
		return s / float64(len(b))
	}
	return mean(o.Backlog[len(o.Backlog)-q:]) - mean(o.Backlog[:q])
}

// OpenLoop dispatches request i at due[i] after the call starts, to
// senders goroutines that run do(i); it returns once every request has
// completed. A request whose sender is busy waits in the queue, and that
// wait counts in its latency.
func OpenLoop(due []time.Duration, senders int, do func(i int)) Open {
	n := len(due)
	o := Open{
		Latency: make([]time.Duration, n),
		Late:    make([]time.Duration, n),
		Backlog: make([]int, n),
	}
	start := time.Now()
	// Sized to the number of sends, so the generator never blocks on a
	// busy sender and never drifts off its schedule.
	queue := make(chan int, n)
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				do(i)
				o.Latency[i] = time.Since(start) - due[i]
			}
		}()
	}
	for i, d := range due {
		if wait := d - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		o.Late[i] = time.Since(start) - d
		o.Backlog[i] = len(queue)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return o
}

// ClosedLoop runs do(0..n-1) from senders goroutines, each starting its
// next request as soon as its previous one completes, and returns each
// request's latency.
func ClosedLoop(n, senders int, do func(i int)) []time.Duration {
	lat := make([]time.Duration, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				t := time.Now()
				do(i)
				lat[i] = time.Since(t)
			}
		}()
	}
	wg.Wait()
	return lat
}
