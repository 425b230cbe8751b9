// Package kv implements the memcached-style in-memory key-value store of
// §4.5: a hash index over slab-allocated items with USR-distribution
// key/value sizes, driven by Zipfian get operations. Access granularity is
// small and spatial locality poor, so the workload is dominated by I/O
// amplification effects (Fig. 16).
//
// The slab allocator batches small items into size-class slabs, mirroring
// memcached 1.2.7 — including the paper's observation (§5 Lessons) that
// slab batching *limits* TrackFM's ability to mitigate I/O amplification
// compared to naive small allocations.
//
// Like hashmap it is a direct workload: it calls an interp.Backend itself,
// as an already-transformed application would, because a slab allocator's
// variable-size allocation pattern is the point of it. Heap addresses are
// never 0 on any backend, so 0 can mean "no slab chunk yet".
package kv

import (
	"fmt"

	"trackfm/internal/interp"
	"trackfm/internal/workloads/dist"
)

// slabClasses are the item size classes (bytes, including the 32-byte
// item header: key hash, value length, key length, padding).
var slabClasses = []int{64, 128, 256, 512, 1024, 2048}

// slabChunkItems is how many items each slab chunk batches.
const slabChunkItems = 64

// Store is the KV store over a Backend.
type Store struct {
	be interp.Backend

	// Hash index: open addressing, 16B slots (keyHash, itemAddr).
	idxBase  uint64
	idxSlots uint64

	// Slab allocator state per class: current chunk base, next free
	// item index within it, and the free list of released items —
	// memcached never returns slab memory, it recycles items within
	// their size class.
	slabBase []uint64
	slabNext []int
	slabFree [][]uint64

	items int
}

// itemHeaderSize is the per-item metadata the store writes ahead of the
// value bytes.
const itemHeaderSize = 32

// NewStore sizes the index for capacity items.
func NewStore(be interp.Backend, capacity int) (*Store, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("kv: capacity must be positive")
	}
	slots := uint64(2)
	for slots < uint64(capacity)*2 {
		slots <<= 1
	}
	return &Store{
		be:       be,
		idxBase:  be.Malloc(slots * 16),
		idxSlots: slots,
		slabBase: make([]uint64, len(slabClasses)),
		slabNext: make([]int, len(slabClasses)),
		slabFree: make([][]uint64, len(slabClasses)),
	}, nil
}

func classFor(n int) (int, error) {
	for ci, sz := range slabClasses {
		if n <= sz {
			return ci, nil
		}
	}
	return 0, fmt.Errorf("kv: item of %d bytes exceeds largest slab class", n)
}

// allocItem slab-allocates an item of the class covering n bytes,
// recycling freed items of the same class first.
func (s *Store) allocItem(n int) (uint64, error) {
	ci, err := classFor(n)
	if err != nil {
		return 0, err
	}
	if free := s.slabFree[ci]; len(free) > 0 {
		addr := free[len(free)-1]
		s.slabFree[ci] = free[:len(free)-1]
		return addr, nil
	}
	if s.slabBase[ci] == 0 || s.slabNext[ci] == slabChunkItems {
		s.slabBase[ci] = s.be.Malloc(uint64(slabClasses[ci]) * slabChunkItems)
		s.slabNext[ci] = 0
	}
	addr := s.slabBase[ci] + uint64(s.slabNext[ci])*uint64(slabClasses[ci])
	s.slabNext[ci]++
	return addr, nil
}

// freeItem returns an item to its class's free list.
func (s *Store) freeItem(addr uint64, n int) {
	ci, err := classFor(n)
	if err != nil {
		return
	}
	s.slabFree[ci] = append(s.slabFree[ci], addr)
}

// tombstone marks index slots whose item was deleted; probes continue
// past them, inserts may reuse them.
const tombstone = ^uint64(0)

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xFF51AFD7ED558CCD
	k ^= k >> 33
	k *= 0xC4CEB9FE1A85EC53
	k ^= k >> 33
	if k == 0 || k == tombstone { // reserved markers
		k = 1
	}
	return k
}

// Set inserts or overwrites key with a value of valLen synthetic bytes
// (keyLen models the key bytes stored in the item header region).
func (s *Store) Set(key uint64, keyLen, valLen int) error {
	h := hashKey(key)
	slot := h & (s.idxSlots - 1)
	reuse := uint64(0)
	haveReuse := false
	for {
		addr := s.idxBase + slot*16
		k := s.be.Load(addr, true)
		if k == tombstone {
			if !haveReuse {
				reuse, haveReuse = addr, true
			}
			slot = (slot + 1) & (s.idxSlots - 1)
			continue
		}
		if k == 0 && haveReuse {
			addr = reuse // key absent: recycle the first tombstone
		}
		if k == 0 || k == h {
			item, err := s.allocItem(itemHeaderSize + keyLen + valLen)
			if err != nil {
				return err
			}
			// Item header: hash, lengths.
			s.be.Store(item, h, true)
			s.be.Store(item+8, uint64(valLen)<<16|uint64(keyLen), true)
			// Value payload: deterministic bytes derived from the key.
			payload := make([]byte, valLen)
			for i := range payload {
				payload[i] = byte(key + uint64(i))
			}
			s.be.StoreBytes(item+itemHeaderSize+uint64(keyLen), payload)
			s.be.Store(addr, h, true)
			s.be.Store(addr+8, item, true)
			if k == 0 {
				s.items++
			}
			return nil
		}
		slot = (slot + 1) & (s.idxSlots - 1)
	}
}

// Get fetches key's value into dst (truncating to the stored length) and
// returns (valLen, found).
func (s *Store) Get(key uint64, dst []byte) (int, bool) {
	h := hashKey(key)
	slot := h & (s.idxSlots - 1)
	for {
		addr := s.idxBase + slot*16
		k := s.be.Load(addr, true)
		if k == 0 {
			return 0, false
		}
		if k == h {
			item := s.be.Load(addr+8, true)
			lens := s.be.Load(item+8, true)
			keyLen := int(lens & 0xFFFF)
			valLen := int(lens >> 16)
			n := valLen
			if n > len(dst) {
				n = len(dst)
			}
			s.be.LoadBytes(item+itemHeaderSize+uint64(keyLen), dst[:n])
			return valLen, true
		}
		slot = (slot + 1) & (s.idxSlots - 1)
	}
}

// Delete removes key, recycling its item into the slab free list, and
// reports whether the key existed.
func (s *Store) Delete(key uint64) bool {
	h := hashKey(key)
	slot := h & (s.idxSlots - 1)
	for {
		addr := s.idxBase + slot*16
		k := s.be.Load(addr, true)
		if k == 0 {
			return false
		}
		if k == h {
			item := s.be.Load(addr+8, true)
			lens := s.be.Load(item+8, true)
			keyLen := int(lens & 0xFFFF)
			valLen := int(lens >> 16)
			s.freeItem(item, itemHeaderSize+keyLen+valLen)
			s.be.Store(addr, tombstone, true)
			s.items--
			return true
		}
		slot = (slot + 1) & (s.idxSlots - 1)
	}
}

// Items reports how many distinct keys are stored.
func (s *Store) Items() int { return s.items }

// Config sizes the memcached benchmark.
type Config struct {
	// Keys is the key population (paper: 100M; scale down).
	Keys int
	// Gets is the number of get operations.
	Gets int
	// Skew is the Zipf skew (paper sweeps 1.0-1.3).
	Skew float64
	// Seed drives the generators.
	Seed uint64
}

// Result reports a run.
type Result struct {
	Hits     int
	Misses   int
	CheckSum uint64
}

// Run populates the store with USR-sized items and executes the Zipfian
// get workload, resetting the backend's clock and counters after the
// populate phase so measurements cover only gets.
func Run(be interp.Backend, cfg Config) (*Result, error) {
	if cfg.Keys <= 0 || cfg.Gets <= 0 {
		return nil, fmt.Errorf("kv: Keys and Gets must be positive")
	}
	if cfg.Skew <= 0 {
		cfg.Skew = 1.02
	}
	st, err := NewStore(be, cfg.Keys)
	if err != nil {
		return nil, err
	}
	usr := dist.NewUSR(cfg.Seed)
	for i := 0; i < cfg.Keys; i++ {
		if err := st.Set(uint64(i)+1, usr.KeySize(), usr.ValueSize()); err != nil {
			return nil, err
		}
	}
	z, err := dist.NewZipf(uint64(cfg.Keys), cfg.Skew, cfg.Seed+1)
	if err != nil {
		return nil, err
	}

	// The populate phase is untimed; its residual locality carries over,
	// as in the paper's methodology.
	be.Env().Reset()

	res := &Result{}
	buf := make([]byte, 1024)
	for i := 0; i < cfg.Gets; i++ {
		key := z.Next() + 1
		n, ok := st.Get(key, buf)
		if !ok {
			res.Misses++
			continue
		}
		res.Hits++
		if n > 0 {
			res.CheckSum += uint64(buf[0]) + uint64(n)
		}
	}
	return res, nil
}

// EstimatedItemBytes reports the mean slab-class footprint per item for
// working-set sizing.
func EstimatedItemBytes(seed uint64, samples int) uint64 {
	usr := dist.NewUSR(seed)
	var total uint64
	for i := 0; i < samples; i++ {
		ci, _ := classFor(itemHeaderSize + usr.KeySize() + usr.ValueSize())
		total += uint64(slabClasses[ci])
	}
	return total / uint64(samples)
}
