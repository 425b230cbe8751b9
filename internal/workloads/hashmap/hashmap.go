// Package hashmap implements the paper's STL-map microbenchmark (§4.3,
// §4.4): a hash table in far memory accessed through a Zipfian key trace.
// Keys and values are small (the paper uses 4-byte pairs), so spatial
// locality is poor and access granularity is tiny — the workload that
// rewards small object sizes (Fig. 9) and exposes Fastswap's page-granular
// I/O amplification (Fig. 13).
//
// The table is open-addressing with linear probing, 16-byte slots
// (key, value). As in the paper, the access trace itself is also stored in
// a heap array and read sequentially during the run.
//
// It is a direct workload: where the IR workloads (stream, kmeans,
// analytics, nas) are mini-IR programs the compiler transforms, hashmap
// calls an interp.Backend itself, playing an already-transformed
// application — every heap access a guarded one, the trace scan a chunked
// stream. It runs on the same backends, built by the same
// interp.NewBackend, as the compiled programs.
package hashmap

import (
	"fmt"

	"trackfm/internal/interp"
	"trackfm/internal/workloads/dist"
)

// Config sizes the benchmark.
type Config struct {
	// Entries is the number of key/value pairs inserted.
	Entries int
	// Lookups is the number of Zipfian get operations.
	Lookups int
	// Skew is the Zipf skew parameter (paper: 1.02).
	Skew float64
	// Seed drives trace generation.
	Seed uint64
}

// WorkingSetBytes reports the table plus trace footprint for cfg.
func (c Config) WorkingSetBytes() uint64 {
	return uint64(tableSlots(c.Entries))*16 + uint64(c.Lookups)*8
}

// tableSlots sizes the table at 2x entries rounded up to a power of two.
func tableSlots(entries int) uint64 {
	n := uint64(2)
	for n < uint64(entries)*2 {
		n <<= 1
	}
	return n
}

// hashKey mixes a key into a slot index (splitmix64 finalizer).
func hashKey(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xBF58476D1CE4E5B9
	k ^= k >> 27
	k *= 0x94D049BB133111EB
	k ^= k >> 31
	return k
}

// Table is a far-memory hash table over a Backend.
type Table struct {
	be    interp.Backend
	base  uint64
	slots uint64
}

// Build allocates and populates a table with entries pairs: key i+1 maps
// to value 2*(i+1)+1 (key 0 marks an empty slot).
func Build(be interp.Backend, entries int) (*Table, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("hashmap: entries must be positive")
	}
	slots := tableSlots(entries)
	t := &Table{be: be, base: be.Malloc(slots * 16), slots: slots}
	for i := 0; i < entries; i++ {
		key := uint64(i) + 1
		t.put(key, 2*key+1)
	}
	return t, nil
}

func (t *Table) slotAddr(s uint64) uint64 { return t.base + s*16 }

func (t *Table) put(key, val uint64) {
	s := hashKey(key) & (t.slots - 1)
	for {
		addr := t.slotAddr(s)
		k := t.be.Load(addr, true)
		if k == 0 || k == key {
			t.be.Store(addr, key, true)
			t.be.Store(addr+8, val, true)
			return
		}
		s = (s + 1) & (t.slots - 1)
	}
}

// Get looks key up, returning (value, found).
func (t *Table) Get(key uint64) (uint64, bool) {
	s := hashKey(key) & (t.slots - 1)
	for {
		addr := t.slotAddr(s)
		k := t.be.Load(addr, true)
		if k == key {
			return t.be.Load(addr+8, true), true
		}
		if k == 0 {
			return 0, false
		}
		s = (s + 1) & (t.slots - 1)
	}
}

// Result reports a benchmark run.
type Result struct {
	// Hits counts successful lookups (all lookups should hit).
	Hits int
	// CheckSum accumulates returned values, for cross-backend checks.
	CheckSum uint64
}

// Run builds the table and trace, then executes the Zipfian lookups. The
// caller reads cycles/counters from the backend's Env, which Run resets
// after the build phase so they cover the lookups alone.
func Run(be interp.Backend, cfg Config) (*Result, error) {
	if cfg.Lookups <= 0 {
		return nil, fmt.Errorf("hashmap: lookups must be positive")
	}
	if cfg.Skew <= 0 {
		cfg.Skew = 1.02
	}
	t, err := Build(be, cfg.Entries)
	if err != nil {
		return nil, err
	}

	// Store the access trace in a heap array (paper: a 190MB key array
	// "also allocated on the heap").
	z, err := dist.NewZipf(uint64(cfg.Entries), cfg.Skew, cfg.Seed)
	if err != nil {
		return nil, err
	}
	traceBase := be.Malloc(uint64(cfg.Lookups) * 8)
	for i := 0; i < cfg.Lookups; i++ {
		be.Store(traceBase+uint64(i)*8, z.Next()+1, true)
	}

	// Isolate the measurement phase. As in the paper, the table build is
	// untimed but its residual locality carries over: whatever fit in
	// local memory during construction is still local when the lookups
	// start (at 100% local memory nothing ever leaves).
	be.Env().Reset()

	res := &Result{}
	trace := be.OpenCursor(traceBase, 8, true)
	defer trace.Close()
	for i := 0; i < cfg.Lookups; i++ {
		v, ok := t.Get(trace.Load(traceBase + uint64(i)*8))
		if ok {
			res.Hits++
			res.CheckSum += v
		}
	}
	return res, nil
}
