package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	good := Config{SizeBytes: 1024, LineBytes: 64, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{SizeBytes: 1024, LineBytes: 48, Ways: 4}, // non-pow2 line
		{SizeBytes: 1000, LineBytes: 64, Ways: 4}, // size not multiple
		{SizeBytes: 1024, LineBytes: 64, Ways: 0},
		{SizeBytes: 192, LineBytes: 64, Ways: 2}, // 3 lines, 2 ways
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestLRUBasics(t *testing.T) {
	// 2 lines total, fully associative (1 set, 2 ways), 64B lines.
	c, err := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a, false) // miss
	c.Access(b, false) // miss
	c.Access(a, false) // hit (promotes a)
	c.Access(d, false) // miss, evicts b (LRU)
	c.Access(b, false) // miss again
	s := c.Stats()
	if s.Accesses != 5 || s.Misses != 4 {
		t.Fatalf("stats = %+v, want 5 accesses / 4 misses", s)
	}
	if s.Writebacks != 0 {
		t.Fatalf("unexpected writebacks: %+v", s)
	}
}

func TestDirtyWriteback(t *testing.T) {
	c, err := New(Config{SizeBytes: 64, LineBytes: 64, Ways: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, true)    // miss, dirty
	c.Access(64, false)  // evicts dirty line 0 -> writeback
	c.Access(128, false) // evicts clean line -> no writeback
	s := c.Stats()
	if s.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", s.Writebacks)
	}
	// DRAM traffic: 3 fills + 1 writeback = 4 lines.
	if s.DRAMBytes() != 4*64 {
		t.Fatalf("DRAMBytes = %d, want 256", s.DRAMBytes())
	}
}

func TestFlush(t *testing.T) {
	c, err := New(Config{SizeBytes: 256, LineBytes: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, true)
	c.Access(64, true)
	c.Access(128, false)
	c.Flush()
	if got := c.Stats().Writebacks; got != 2 {
		t.Fatalf("writebacks after flush = %d, want 2", got)
	}
	// Flushing twice must not double count.
	c.Flush()
	if got := c.Stats().Writebacks; got != 2 {
		t.Fatalf("writebacks after second flush = %d, want 2", got)
	}
}

func TestDirtyBitSurvivesPromotion(t *testing.T) {
	c, err := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Access(0, true)   // dirty
	c.Access(64, false) // clean
	c.Access(0, false)  // hit, promote; line 0 stays dirty
	c.Access(128, false)
	c.Access(192, false) // both original lines evicted by now
	if got := c.Stats().Writebacks; got != 1 {
		t.Fatalf("writebacks = %d, want 1 (dirty bit lost in promotion?)", got)
	}
}

func TestHitRateOnRepeatedAccess(t *testing.T) {
	c, err := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Access(0, false)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Accesses != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBeladyClassicCycle(t *testing.T) {
	// Cyclic a,b,c with capacity 2: LRU misses every access; OPT hits.
	var addrs []uint64
	var writes []bool
	for i := 0; i < 30; i++ {
		addrs = append(addrs, uint64((i%3)*64))
		writes = append(writes, false)
	}
	opt := SimulateBelady(addrs, writes, 2, 64)
	lru, _ := New(Config{SizeBytes: 128, LineBytes: 64, Ways: 2})
	for i := range addrs {
		lru.Access(addrs[i], writes[i])
	}
	if lru.Stats().Misses != 30 {
		t.Fatalf("LRU should thrash: misses = %d", lru.Stats().Misses)
	}
	// OPT: 3 compulsory + one of {b,c} per subsequent cycle ~= 12.
	if opt.Stats.Misses >= lru.Stats().Misses {
		t.Fatalf("OPT misses %d not below LRU %d", opt.Stats.Misses, lru.Stats().Misses)
	}
	if opt.Stats.Misses < 3 {
		t.Fatalf("OPT misses %d below compulsory 3", opt.Stats.Misses)
	}
}

func TestBeladyNeverWorseThanLRUProperty(t *testing.T) {
	f := func(seed int64, capRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int(capRaw%16) + 1
		n := 500
		addrs := make([]uint64, n)
		writes := make([]bool, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(64)) * 64
			writes[i] = rng.Intn(4) == 0
		}
		opt := SimulateBelady(addrs, writes, capacity, 64)
		lru, err := New(Config{SizeBytes: int64(capacity) * 64, LineBytes: 64, Ways: capacity})
		if err != nil {
			return false
		}
		for i := range addrs {
			lru.Access(addrs[i], writes[i])
		}
		return opt.Stats.Misses <= lru.Stats().Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBeladyWritebackAccounting(t *testing.T) {
	addrs := []uint64{0, 64, 0}
	writes := []bool{true, false, false}
	r := SimulateBelady(addrs, writes, 4, 64)
	// Nothing evicted; final flush writes back the one dirty line.
	if r.Stats.Writebacks != 1 || r.Stats.Misses != 2 {
		t.Fatalf("stats = %+v", r.Stats)
	}
}

func TestGEMMTraceCompulsoryTraffic(t *testing.T) {
	// A cache larger than the whole footprint only takes compulsory
	// misses: DRAM traffic equals operand bytes (plus output writeback).
	g := &trace.TiledGEMM{
		M: 16, K: 16, N: 16,
		M0: 4, K0: 4, N0: 4,
		Order:       [3]string{"M", "K", "N"},
		ElementSize: 2,
	}
	totalBytes := int64(3*16*16) * 2
	c, err := New(Config{SizeBytes: 4096, LineBytes: 64, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Emit(c.Access); err != nil {
		t.Fatal(err)
	}
	c.Flush()
	s := c.Stats()
	wantLines := totalBytes / 64
	if s.Misses != wantLines {
		t.Fatalf("misses = %d, want compulsory %d", s.Misses, wantLines)
	}
	// Output writebacks: 16*16*2/64 = 8 lines.
	if s.Writebacks != 8 {
		t.Fatalf("writebacks = %d, want 8", s.Writebacks)
	}
}

func TestSmallerCacheMoreTraffic(t *testing.T) {
	g := &trace.TiledGEMM{
		M: 64, K: 64, N: 64,
		M0: 8, K0: 8, N0: 8,
		Order:       [3]string{"N", "K", "M"},
		ElementSize: 2,
	}
	var traffic []int64
	for _, size := range []int64{1 << 10, 1 << 12, 1 << 14, 1 << 16} {
		c, err := New(Config{SizeBytes: size, LineBytes: 64, Ways: 8})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Emit(c.Access); err != nil {
			t.Fatal(err)
		}
		c.Flush()
		traffic = append(traffic, c.Stats().DRAMBytes())
	}
	for i := 1; i < len(traffic); i++ {
		if traffic[i] > traffic[i-1] {
			t.Fatalf("traffic grew with cache size: %v", traffic)
		}
	}
	if traffic[0] == traffic[len(traffic)-1] {
		t.Fatalf("cache size had no effect: %v", traffic)
	}
}
