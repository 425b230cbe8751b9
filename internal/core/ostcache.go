package core

import "sync"

// ostCache models which object-state-table cache lines are warm in the
// CPU cache. A guard whose OST entry is warm pays the "cached" cost of
// Table 1; a first touch (or a touch after capacity eviction) pays the
// "uncached" cost. Entries are 8 bytes, so one 64-byte line covers eight
// consecutive objects — exactly the spatial reuse a streaming loop enjoys.
//
// The model is a FIFO-replacement set of line tags: precise enough to
// reproduce the cached/uncached split without simulating a full cache
// hierarchy.
// The cache is shared by every goroutine running guards, so its map and
// ring are guarded by a mutex; the warm/cold verdict under concurrency is
// a property of the interleaving, exactly as a real shared cache's is.
type ostCache struct {
	mu       sync.Mutex
	resident map[uint64]struct{}
	order    []uint64 // FIFO ring of resident tags
	head     int
	capacity int
}

// objectsPerLine is how many 8-byte OST entries share a 64-byte line.
const objectsPerLine = 8

// ostCacheLines is a runtime's warm-line capacity: ~16 MB of OST coverage,
// LLC-like.
const ostCacheLines = 1 << 18

func newOSTCache(capacityLines int) *ostCache {
	return &ostCache{
		resident: make(map[uint64]struct{}, capacityLines),
		order:    make([]uint64, capacityLines),
		capacity: capacityLines,
	}
}

// touch records an access to the OST entry for object id and reports
// whether its line was already warm.
func (c *ostCache) touch(id uint64) bool {
	line := id / objectsPerLine
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.resident[line]; ok {
		return true
	}
	if len(c.resident) >= c.capacity {
		victim := c.order[c.head]
		delete(c.resident, victim)
		c.order[c.head] = line
		c.head = (c.head + 1) % c.capacity
	} else {
		c.order[(c.head+len(c.resident))%c.capacity] = line
	}
	c.resident[line] = struct{}{}
	return false
}

// flush empties the cache; Table 1's "uncached" rows are measured this way.
func (c *ostCache) flush() {
	c.mu.Lock()
	c.resident = make(map[uint64]struct{}, c.capacity)
	c.head = 0
	c.mu.Unlock()
}
