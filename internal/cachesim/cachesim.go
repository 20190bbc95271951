// Package cachesim provides a set-associative LRU cache model used to
// measure the off-chip memory traffic of point-cloud kernels (Fig. 4b).
// The kernels funnel their data accesses through a Cache; misses count as
// off-chip transfers. Comparing the miss traffic against the compulsory
// (optimal) traffic — each distinct byte fetched exactly once — reproduces
// the paper's observation that irregular LiDAR processing moves orders of
// magnitude more data than an ideal on-chip-reuse machine would.
package cachesim

import "fmt"

// Config sizes the cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Cache is a set-associative LRU cache with access accounting.
type Cache struct {
	cfg  Config
	sets int
	// tags[set][way]; lru[set][way] holds recency counters.
	tags    [][]uint64
	valid   [][]bool
	lruTick [][]uint64
	tick    uint64

	accesses int64
	misses   int64
	touched  map[uint64]struct{}
}

// New builds a cache; size must be divisible by line*ways.
func New(cfg Config) *Cache {
	if cfg.LineBytes <= 0 || cfg.Ways <= 0 || cfg.SizeBytes <= 0 {
		panic(fmt.Sprintf("cachesim: invalid config %+v", cfg))
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if sets == 0 {
		sets = 1
	}
	c := &Cache{cfg: cfg, sets: sets, touched: make(map[uint64]struct{})}
	c.tags = make([][]uint64, sets)
	c.valid = make([][]bool, sets)
	c.lruTick = make([][]uint64, sets)
	for i := 0; i < sets; i++ {
		c.tags[i] = make([]uint64, cfg.Ways)
		c.valid[i] = make([]bool, cfg.Ways)
		c.lruTick[i] = make([]uint64, cfg.Ways)
	}
	return c
}

// Access touches size bytes starting at addr (virtual address space chosen
// by the caller; any consistent mapping works).
func (c *Cache) Access(addr, size int64) {
	if size <= 0 {
		size = 1
	}
	line := int64(c.cfg.LineBytes)
	for a := addr / line; a <= (addr+size-1)/line; a++ {
		c.accessLine(uint64(a))
	}
}

func (c *Cache) accessLine(lineAddr uint64) {
	c.accesses++
	c.tick++
	c.touched[lineAddr] = struct{}{}
	set := int(lineAddr % uint64(c.sets))
	tag := lineAddr / uint64(c.sets)
	ways := c.cfg.Ways
	// Hit?
	for w := 0; w < ways; w++ {
		if c.valid[set][w] && c.tags[set][w] == tag {
			c.lruTick[set][w] = c.tick
			return
		}
	}
	// Miss: evict LRU.
	c.misses++
	victim := 0
	oldest := c.lruTick[set][0]
	for w := 0; w < ways; w++ {
		if !c.valid[set][w] {
			victim = w
			break
		}
		if c.lruTick[set][w] < oldest {
			oldest = c.lruTick[set][w]
			victim = w
		}
	}
	c.tags[set][victim] = tag
	c.valid[set][victim] = true
	c.lruTick[set][victim] = c.tick
}

// Stats summarizes the run.
type Stats struct {
	Accesses int64
	Misses   int64
	// TrafficBytes is the off-chip traffic (misses × line).
	TrafficBytes int64
	// CompulsoryBytes is the optimal traffic: distinct lines touched once.
	CompulsoryBytes int64
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Accesses:        c.accesses,
		Misses:          c.misses,
		TrafficBytes:    c.misses * int64(c.cfg.LineBytes),
		CompulsoryBytes: int64(len(c.touched)) * int64(c.cfg.LineBytes),
	}
}

// TrafficRatio is off-chip traffic normalized to the optimal case (>= 1 for
// any real run; Fig. 4b's y-axis).
func (s Stats) TrafficRatio() float64 {
	if s.CompulsoryBytes == 0 {
		return 0
	}
	return float64(s.TrafficBytes) / float64(s.CompulsoryBytes)
}

// MissRate returns misses/accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Reset clears counters and contents.
func (c *Cache) Reset() {
	for i := 0; i < c.sets; i++ {
		for w := 0; w < c.cfg.Ways; w++ {
			c.valid[i][w] = false
			c.lruTick[i][w] = 0
		}
	}
	c.accesses, c.misses, c.tick = 0, 0, 0
	c.touched = make(map[uint64]struct{})
}
