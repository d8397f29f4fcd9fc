// Package cachesim simulates set-associative LRU caches (and, for
// reference, Belady's optimal replacement) over address traces. It stands
// in for the paper's GPU hardware counters: simulated DRAM traffic of a
// concrete tiled implementation is a *measured point* that must sit on or
// above the Orojenesis bound at the corresponding capacity (Figs. 2, 24a).
package cachesim

import "fmt"

// Config describes a cache: total capacity, line size and associativity.
type Config struct {
	SizeBytes int64
	LineBytes int64
	Ways      int
}

// Validate checks the geometry: power-of-two line size, ways dividing the
// line count.
func (c Config) Validate() error {
	if c.LineBytes < 1 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cachesim: line size %d must be a positive power of two", c.LineBytes)
	}
	if c.Ways < 1 {
		return fmt.Errorf("cachesim: ways %d", c.Ways)
	}
	lines := c.SizeBytes / c.LineBytes
	if lines < 1 || c.SizeBytes%c.LineBytes != 0 {
		return fmt.Errorf("cachesim: size %d not a multiple of line size %d", c.SizeBytes, c.LineBytes)
	}
	if lines%int64(c.Ways) != 0 {
		return fmt.Errorf("cachesim: %d lines not divisible by %d ways", lines, c.Ways)
	}
	return nil
}

// Stats accumulates simulation counters.
type Stats struct {
	Accesses   int64
	Misses     int64
	Writebacks int64
	LineBytes  int64
}

// DRAMBytes is the traffic to the backing store: fills plus writebacks,
// in bytes.
func (s Stats) DRAMBytes() int64 { return (s.Misses + s.Writebacks) * s.LineBytes }

type way struct {
	tag   uint64
	valid bool
	dirty bool
}

// Cache is a write-back, write-allocate, set-associative LRU cache.
type Cache struct {
	cfg       Config
	sets      uint64
	lineShift uint
	// ways[set] is ordered most- to least-recently used.
	ways  [][]way
	stats Stats
}

// New builds a cache; the config must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	sets := uint64(lines / int64(cfg.Ways))
	shift := uint(0)
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		shift++
	}
	c := &Cache{
		cfg:       cfg,
		sets:      sets,
		lineShift: shift,
		ways:      make([][]way, sets),
	}
	for i := range c.ways {
		c.ways[i] = make([]way, cfg.Ways)
	}
	c.stats.LineBytes = cfg.LineBytes
	return c, nil
}

// Access simulates one reference to addr.
func (c *Cache) Access(addr uint64, write bool) {
	c.stats.Accesses++
	line := addr >> c.lineShift
	set := c.ways[line%c.sets]

	// Hit: promote to MRU, carrying the dirty bit along.
	for i := range set {
		if set[i].valid && set[i].tag == line {
			hit := set[i]
			copy(set[1:i+1], set[:i])
			hit.dirty = hit.dirty || write
			set[0] = hit
			return
		}
	}

	// Miss: evict LRU (writeback if dirty), fill at MRU.
	c.stats.Misses++
	victim := set[len(set)-1]
	if victim.valid && victim.dirty {
		c.stats.Writebacks++
	}
	copy(set[1:], set[:len(set)-1])
	set[0] = way{tag: line, valid: true, dirty: write}
}

// Flush writes back all dirty lines, completing the DRAM traffic account
// at the end of a kernel.
func (c *Cache) Flush() {
	for _, set := range c.ways {
		for i := range set {
			if set[i].valid && set[i].dirty {
				c.stats.Writebacks++
				set[i].dirty = false
			}
		}
	}
}

// Stats returns the counters accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }
