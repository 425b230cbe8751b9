package core

import (
	"sync"
	"sync/atomic"
)

// ostCache models which object-state-table cache lines are warm in the
// CPU cache. A guard whose OST entry is warm pays the "cached" cost of
// Table 1; a first touch (or a touch after capacity eviction) pays the
// "uncached" cost. Entries are 8 bytes, so one 64-byte line covers eight
// consecutive objects — exactly the spatial reuse a streaming loop enjoys.
//
// The model is a FIFO-replacement set of line tags: precise enough to
// reproduce the cached/uncached split without simulating a full cache
// hierarchy. The set is one bit per OST line of this runtime's heap, so
// it costs what the heap's table costs ÷ 512, not what the modeled cache
// could hold. A warm touch is one atomic load; a cold touch is one atomic
// Or, and exactly one of the goroutines racing on a cold line sees it
// cold. The warm/cold verdict under concurrency is a property of the
// interleaving, exactly as a real shared cache's is.
//
// Only a table with more lines than the capacity can ever evict; such a
// table gets the FIFO ring of resident tags, and only cold touches take
// its mutex.
type ostCache struct {
	warm []atomic.Uint32 // bit l%32 of word l/32: line l is warm

	mu       sync.Mutex
	order    []uint64 // FIFO ring of resident tags; nil when every line fits
	head     int      // oldest resident tag
	resident int      // tags in the ring
}

// objectsPerLine is how many 8-byte OST entries share a 64-byte line.
const objectsPerLine = 8

// ostCacheLines is a runtime's warm-line capacity: ~16 MB of OST coverage,
// LLC-like.
const ostCacheLines = 1 << 18

// newOSTCache models capacityLines warm lines over the OST of a heap of
// the given object count.
func newOSTCache(objects, capacityLines int) *ostCache {
	lines := (objects + objectsPerLine - 1) / objectsPerLine
	c := &ostCache{warm: make([]atomic.Uint32, (lines+31)/32)}
	if lines > capacityLines {
		c.order = make([]uint64, capacityLines)
	}
	return c
}

// touch records an access to the OST entry for object id and reports
// whether its line was already warm.
func (c *ostCache) touch(id uint64) bool {
	line := id / objectsPerLine
	word, bit := &c.warm[line/32], uint32(1)<<(line%32)
	if word.Load()&bit != 0 {
		return true
	}
	if c.order == nil {
		return word.Or(bit)&bit != 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if word.Load()&bit != 0 {
		return true // another toucher warmed it while we waited
	}
	if c.resident == len(c.order) {
		victim := c.order[c.head]
		c.warm[victim/32].And(^(uint32(1) << (victim % 32)))
		c.order[c.head] = line
		c.head = (c.head + 1) % len(c.order)
	} else {
		c.order[(c.head+c.resident)%len(c.order)] = line
		c.resident++
	}
	word.Or(bit)
	return false
}

// flush empties the cache; Table 1's "uncached" rows are measured this way.
func (c *ostCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.warm {
		c.warm[i].Store(0)
	}
	c.head, c.resident = 0, 0
}
