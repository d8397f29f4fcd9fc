package serve

import (
	"container/list"
	"context"
	"sync"
	"time"
)

// result is a finished derivation: everything the derive function
// produced plus the wall time it cost. Cached responses replay the
// original evaluated count and elapsed time, so clients can still see
// what the derivation cost when it actually ran.
type result struct {
	deriveOut
	elapsed time.Duration

	// fromStore marks a durable-store hit: the curve was read back from
	// disk rather than derived in this process. Responses report it as
	// cached; finish republishes it to the memory LRU.
	fromStore bool

	// fields is the encoded tail of every success envelope that serves
	// this result (encodeResultFields), filled once before the flight
	// publishes the result: a cache hit encodes only its header. A worker
	// shard's flight publishes the whole partial-frontier file here.
	fields []byte
}

// flight is one in-progress derivation that any number of identical
// requests attach to. The first joiner becomes the leader and runs the
// derivation under ctx (a child of the server's lifetime context, NOT of
// any request's context — a leader hanging up must not kill the result
// its late joiners are waiting for). Each waiter honors its own deadline
// by selecting on done versus its request context; waiters that give up
// call leave, and when the count hits zero the flight's ctx is cancelled
// so an unwanted derivation stops at chunk granularity instead of
// burning a slot to completion.
type flight struct {
	key    string
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	// res and err are set exactly once, before done is closed.
	res result
	err error

	waiters  int
	finished bool
}

// centry is one LRU cache slot.
type centry struct {
	key string
	res result
}

// memCache is the digest-keyed result cache plus the single-flight table,
// under one mutex (a table of capacity 0 caches nothing and is a bare
// single-flight table): a finishing flight inserts its result and removes
// itself atomically, so there is no window in which a new request sees
// neither the cached result nor the running flight and starts a
// duplicate derivation.
type memCache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List               // of *centry; front = most recent
	entries  map[string]*list.Element // key -> element in order
	flights  map[string]*flight
}

func newMemCache(capacity int) *memCache {
	return &memCache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[string]*list.Element),
		flights:  make(map[string]*flight),
	}
}

// get returns the cached result for key, refreshing its recency.
func (s *memCache) get(key string) (result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return result{}, false
	}
	s.order.MoveToFront(el)
	return el.Value.(*centry).res, true
}

// join attaches the caller to the flight for key, creating it if absent.
// The second return reports leadership: the leader must start the
// derivation and eventually call finish; everyone (leader included, via
// its request handler) waits on f.done or leaves.
//
// A flight whose last waiter left is cancelled but stays in the table
// until its derivation winds down. Its outcome is that cancellation, so
// join never attaches to it; nor does it start a second flight of the
// key beside it, since the flights of a spooled derivation share one
// spool directory and those of a worker shard one checkpoint path. It
// waits for the abandoned flight to finish, joins it if it succeeded
// anyway, and otherwise leads or joins a fresh flight. If ctx ends
// first, join returns ctx's error.
func (s *memCache) join(ctx, base context.Context, key string) (*flight, bool, error) {
	s.mu.Lock()
	for {
		f, ok := s.flights[key]
		if !ok {
			break
		}
		if f.waiters > 0 {
			f.waiters++
			s.mu.Unlock()
			return f, false, nil
		}
		s.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
		if f.err == nil {
			return f, false, nil
		}
		s.mu.Lock()
	}
	defer s.mu.Unlock()
	fctx, cancel := context.WithCancel(base)
	f := &flight{
		key:     key,
		ctx:     fctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		waiters: 1,
	}
	s.flights[key] = f
	return f, true, nil
}

// leave detaches a waiter that gave up (deadline expired, client
// disconnected). When the last waiter leaves an unfinished flight, the
// flight's context is cancelled: nobody wants the answer anymore, so the
// traversal stops and frees its slot for admitted work.
func (s *memCache) leave(f *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.waiters--
	if f.waiters <= 0 && !f.finished {
		f.cancel()
	}
}

// finish publishes the flight's outcome, whose fields the flight has
// encoded: result and error are recorded, waiters are released, the
// flight leaves the table, and — in the same critical section — a
// successful result enters the cache. Failed derivations are
// never cached; the next identical request retries. Degraded merges are
// also never cached: their spool survives, so the next identical request
// resumes the missing slices instead of replaying an incomplete answer.
func (s *memCache) finish(f *flight, res result, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f.res, f.err = res, err
	f.finished = true
	if err == nil && res.degraded == nil {
		s.putLocked(f.key, res)
	}
	delete(s.flights, f.key)
	close(f.done)
}

// putLocked inserts or refreshes a cache entry and evicts from the cold
// end past capacity. Caller holds mu.
func (s *memCache) putLocked(key string, res result) {
	if s.capacity <= 0 {
		return
	}
	if el, ok := s.entries[key]; ok {
		el.Value.(*centry).res = res
		s.order.MoveToFront(el)
		return
	}
	s.entries[key] = s.order.PushFront(&centry{key: key, res: res})
	for len(s.entries) > s.capacity {
		el := s.order.Back()
		s.order.Remove(el)
		delete(s.entries, el.Value.(*centry).key)
	}
}

// len reports the number of cached results.
func (s *memCache) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}
