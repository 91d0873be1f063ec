// Package memsim is the execution-driven NUMA machine simulator that
// substitutes for the paper's Haswell-EX testbed. It models, per core,
// a set-associative L1/L2, a DTLB/STLB with page walks, line fill
// buffers with rejection, a page-bounded stream prefetcher and a 2-bit
// branch predictor; per socket, a shared inclusive L3 and uncore
// counters (LLC lookups, IMC traffic, QPI flits, package energy); and
// across sockets, DRAM latencies derived from the SLIT distance
// matrix. Every access updates the hardware event counters defined in
// internal/counters, which is what makes the paper's tools measurable
// without real PMU hardware.
package memsim

// cacheFlags bit layout.
const (
	lineValid      = 1 << 0
	linePrefetched = 1 << 1
	lineDirty      = 1 << 2
)

// cache is a set-associative cache with LRU replacement, stored as a
// structure of arrays to keep per-run allocation and reset cheap.
type cache struct {
	tags    []uint64 // line address per way slot
	use     []uint32 // LRU timestamp per way slot
	flags   []uint8
	owner   []int16 // last writing core (LLC coherence approximation)
	sets    int
	ways    int
	setMask uint64
	clock   uint32
}

func newCache(sets, ways int) *cache {
	n := sets * ways
	return &cache{
		tags:    make([]uint64, n),
		use:     make([]uint32, n),
		flags:   make([]uint8, n),
		owner:   make([]int16, n),
		sets:    sets,
		ways:    ways,
		setMask: uint64(sets - 1),
	}
}

func (c *cache) reset() {
	for i := range c.flags {
		c.flags[i] = 0
	}
	c.clock = 0
}

// tick advances the LRU clock and returns the new stamp. Stamps stay
// uint32 to keep the cache small; when the clock wraps, every set's
// stamps are renumbered in place first, keeping their order.
func (c *cache) tick() uint32 {
	c.clock++
	if c.clock == 0 {
		c.renormalise()
	}
	return c.clock
}

// renormalise rewrites each set's stamps as their ranks 1..ways in
// current LRU order (ties broken by way index) and restarts the clock
// just above them.
func (c *cache) renormalise() {
	ranks := make([]uint32, c.ways)
	for base := 0; base < len(c.use); base += c.ways {
		set := c.use[base : base+c.ways]
		for i, u := range set {
			ranks[i] = 1
			for j, v := range set {
				if v < u || (v == u && j < i) {
					ranks[i]++
				}
			}
		}
		copy(set, ranks)
	}
	c.clock = uint32(c.ways) + 1
}

// lookup probes the cache for a line address and returns the way slot
// index on a hit (updating LRU state), or -1.
func (c *cache) lookup(lineAddr uint64) int {
	base := int(lineAddr&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.flags[i]&lineValid != 0 && c.tags[i] == lineAddr {
			c.use[i] = c.tick()
			return i
		}
	}
	return -1
}

// peek is lookup without the LRU update (used by prefetch probes that
// must not perturb replacement decisions).
func (c *cache) peek(lineAddr uint64) int {
	base := int(lineAddr&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.flags[i]&lineValid != 0 && c.tags[i] == lineAddr {
			return i
		}
	}
	return -1
}

// insert places a line into the cache, evicting the LRU way if the set
// is full. It returns the slot index and whether a valid line was
// evicted.
func (c *cache) insert(lineAddr uint64, fl uint8, owner int16) (slot int, evicted bool) {
	base := int(lineAddr&c.setMask) * c.ways
	victim := base
	var victimUse uint32 = ^uint32(0)
	for w := 0; w < c.ways; w++ {
		i := base + w
		if c.flags[i]&lineValid == 0 {
			victim, evicted = i, false
			goto place
		}
		if c.use[i] < victimUse {
			victimUse = c.use[i]
			victim = i
		}
	}
	evicted = true
place:
	c.tags[victim] = lineAddr
	c.use[victim] = c.tick()
	c.flags[victim] = lineValid | fl
	c.owner[victim] = owner
	return victim, evicted
}

// invalidate removes a line if present.
func (c *cache) invalidate(lineAddr uint64) {
	if i := c.peek(lineAddr); i >= 0 {
		c.flags[i] = 0
	}
}

// occupancy returns the number of valid lines (test helper, O(n)).
func (c *cache) occupancy() int {
	n := 0
	for _, f := range c.flags {
		if f&lineValid != 0 {
			n++
		}
	}
	return n
}
