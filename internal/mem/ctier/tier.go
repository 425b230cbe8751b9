package ctier

import (
	"sync"
	"sync/atomic"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/obs"
)

// Config parameterises a Tier.
type Config struct {
	// Budget is the compressed-byte budget. The tier holds entries whose
	// summed encoded sizes never exceed it.
	Budget uint64
}

// Stats is the tier's atomic counter block.
type Stats struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	demotes   atomic.Uint64
	rejects   atomic.Uint64
	evictions atomic.Uint64
	corrupt   atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Hits      uint64 // Get found the object and promoted it
	Misses    uint64 // Get found nothing; caller goes to the fabric
	Demotes   uint64 // Put admitted an object
	Rejects   uint64 // Put declined (over-budget object or disabled tier)
	Evictions uint64 // entries dropped to fit the budget
	Corrupt   uint64 // entries that failed to decode (served as misses)
}

// Snapshot copies the counters. A nil receiver (the Stats of a disabled
// tier) reads as all zeros.
func (s *Stats) Snapshot() StatsSnapshot {
	if s == nil {
		return StatsSnapshot{}
	}
	return StatsSnapshot{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Demotes:   s.demotes.Load(),
		Rejects:   s.rejects.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
	}
}

// entry is one compressed-resident object. data is either an encoded
// block (raw=false) or the verbatim object bytes (raw=true: the codec
// could not shrink it, and storing it header-less keeps the lease within
// bufpool.MaxSize for 64 KiB objects). chance is the clock's second
// chance, given to a key the ghost set remembers.
type entry struct {
	lease  bufpool.Lease
	data   []byte
	rawLen int
	chance bool
}

// ring is a growable FIFO deque of keys. Stale keys (no longer in the
// map) are tolerated and skipped lazily, so pushes never have to search.
type ring struct {
	buf        []uint64
	head, tail int
	n          int
}

func (r *ring) push(k uint64) {
	if r.n == len(r.buf) {
		grown := make([]uint64, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head, r.tail = grown, 0, r.n
	}
	r.buf[r.tail] = k
	r.tail = (r.tail + 1) % len(r.buf)
	r.n++
}

func (r *ring) pop() (uint64, bool) {
	if r.n == 0 {
		return 0, false
	}
	k := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return k, true
}

// keep drops, in place and in order, every key live rejects.
func (r *ring) keep(live func(uint64) bool) {
	n := 0
	for i := 0; i < r.n; i++ {
		if k := r.buf[(r.head+i)%len(r.buf)]; live(k) {
			r.buf[(r.head+n)%len(r.buf)] = k
			n++
		}
	}
	r.n, r.tail = n, (r.head+n)%len(r.buf)
}

// Tier is a byte-budgeted compressed object cache. It is write-through
// with respect to the remote store: callers demote a copy here *in
// addition to* (never instead of) the fabric push, so dropping an entry
// is always safe and the durable store's contents are identical whether
// or not a tier is configured. Get has move semantics — a promoted object
// leaves the tier, mirroring the invariant that an object is resident in
// at most one place locally.
//
// Eviction is one CLOCK ring: entries leave in demotion order, except that
// a key the ghost set remembers (it was promoted or evicted recently) gets
// one second chance — one more lap of the ring.
type Tier struct {
	mu      sync.Mutex
	cfg     Config
	enc     Encoder
	scratch []byte // encode destination, reused under mu
	entries map[uint64]entry
	bytes   uint64 // summed len(entry.data)

	clock ring

	ghost     map[uint64]struct{} // recently evicted/promoted keys
	ghostFIFO ring

	stats Stats
}

// New returns a tier with the given config. A zero Budget is a valid
// always-rejecting tier; callers typically keep a nil *Tier instead when
// the feature is off.
func New(cfg Config) *Tier {
	return &Tier{
		cfg:     cfg,
		entries: make(map[uint64]entry),
		ghost:   make(map[uint64]struct{}),
	}
}

// Put compresses raw and admits it under key, evicting colder entries to
// fit the budget. It reports whether the object was admitted; a false
// return means the caller's copy is the only local one (the fabric copy
// already exists either way — the tier is write-through). Re-putting an
// existing key replaces its payload in place.
func (t *Tier) Put(key uint64, raw []byte) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.Budget == 0 {
		t.stats.rejects.Add(1)
		return false
	}
	enc := t.enc.Encode(t.scratch, raw)
	t.scratch = enc[:cap(enc)]
	data := enc
	if len(enc) >= len(raw) && len(raw) > 0 {
		// Incompressible: store the object verbatim (flagged by
		// rawLen == len(data)); the lease stays within the bufpool
		// class ladder where the headered block would not.
		data = raw
	}
	need := uint64(len(data))
	if need > t.cfg.Budget {
		t.stats.rejects.Add(1)
		return false
	}
	if old, ok := t.entries[key]; ok {
		t.removeLocked(key, old)
		old.lease.Release()
	}
	if !t.evictToFit(need) {
		t.stats.rejects.Add(1)
		return false
	}
	lease := bufpool.Get(len(data))
	buf := lease.Bytes()
	copy(buf, data)
	_, returning := t.ghost[key]
	if t.clock.n > 2*len(t.entries)+16 {
		// Only eviction pops, so a tier that never fills would keep
		// every stale slot its demote/promote cycles leave behind.
		t.clock.keep(func(k uint64) bool { _, ok := t.entries[k]; return ok })
	}
	t.clock.push(key)
	t.entries[key] = entry{lease: lease, data: buf, rawLen: len(raw), chance: returning}
	t.bytes += need
	t.stats.demotes.Add(1)
	return true
}

// Get promotes the object under key by decompressing it into dst, which
// must be exactly the object's stored length. It reports whether the
// tier held the object; on true the entry has been removed (move
// semantics) and dst holds the object bytes. A decode failure is counted,
// the entry dropped, and reported as a miss — the write-through fabric
// copy is authoritative, so corruption inside the tier is self-healing.
func (t *Tier) Get(key uint64, dst []byte) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	e, ok := t.entries[key]
	if !ok {
		t.stats.misses.Add(1)
		t.mu.Unlock()
		return false
	}
	t.removeLocked(key, e)
	// A promoted key is hot: remember it so its next demotion gets a
	// second chance.
	t.noteGhost(key)
	t.mu.Unlock()

	// Decode outside the lock: the entry is exclusively owned now.
	ok = t.decodeInto(dst, e)
	e.lease.Release()
	if !ok {
		t.stats.corrupt.Add(1)
		t.stats.misses.Add(1)
		return false
	}
	t.stats.hits.Add(1)
	return true
}

func (t *Tier) decodeInto(dst []byte, e entry) bool {
	if len(dst) != e.rawLen {
		return false
	}
	if e.rawLen == len(e.data) {
		// Stored verbatim (incompressible object).
		copy(dst, e.data)
		return true
	}
	out, err := Decode(dst, e.data)
	return err == nil && len(out) == len(dst)
}

// Contains reports whether key is currently tier-resident (test hook;
// unlike Get it does not promote).
func (t *Tier) Contains(key uint64) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.entries[key]
	return ok
}

// Delete drops key if present (object freed by the runtime).
func (t *Tier) Delete(key uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if e, ok := t.entries[key]; ok {
		t.removeLocked(key, e)
		e.lease.Release()
	}
	delete(t.ghost, key)
}

// Resize changes the budget, evicting down immediately if it shrank.
// This is the governor's pressure hook: the compressed tier gives memory
// back before the arena does.
func (t *Tier) Resize(budget uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg.Budget = budget
	for t.bytes > t.cfg.Budget {
		if !t.evictClock() {
			break
		}
	}
}

// Budget returns the current compressed-byte budget.
func (t *Tier) Budget() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.cfg.Budget
}

// Len returns the number of tier-resident objects.
func (t *Tier) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.entries)
}

// Bytes returns the summed compressed bytes held.
func (t *Tier) Bytes() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.bytes
}

// RawBytes returns the summed uncompressed sizes of the held objects;
// RawBytes/Bytes is the tier's achieved compression ratio.
func (t *Tier) RawBytes() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var raw uint64
	for _, e := range t.entries {
		raw += uint64(e.rawLen)
	}
	return raw
}

// Clear drops every entry (and the ghost history), releasing all leases.
func (t *Tier) Clear() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for k, e := range t.entries {
		t.removeLocked(k, e)
		e.lease.Release()
	}
	for k := range t.ghost {
		delete(t.ghost, k)
	}
	t.ghostFIFO = ring{}
	t.clock = ring{}
}

// Stats exposes the tier's counter block.
func (t *Tier) Stats() *Stats {
	if t == nil {
		return nil
	}
	return &t.stats
}

// Register exposes the tier's counters and gauges on reg under the
// trackfm_ctier_* namespace.
func (t *Tier) Register(reg *obs.Registry, labels ...obs.Label) {
	if t == nil {
		return
	}
	reg.CounterFunc("trackfm_ctier_hits_total",
		"Promotions served from the compressed tier (no fabric round trip).",
		t.stats.hits.Load, labels...)
	reg.CounterFunc("trackfm_ctier_misses_total",
		"Tier probes that fell through to the fabric.",
		t.stats.misses.Load, labels...)
	reg.CounterFunc("trackfm_ctier_demotes_total",
		"Objects admitted into the compressed tier on eviction.",
		t.stats.demotes.Load, labels...)
	reg.CounterFunc("trackfm_ctier_rejects_total",
		"Demotions the tier declined (over budget or disabled).",
		t.stats.rejects.Load, labels...)
	reg.CounterFunc("trackfm_ctier_evictions_total",
		"Tier entries dropped to fit the byte budget.",
		t.stats.evictions.Load, labels...)
	reg.CounterFunc("trackfm_ctier_corrupt_total",
		"Tier entries that failed to decode and were served as misses.",
		t.stats.corrupt.Load, labels...)
	reg.GaugeFunc("trackfm_ctier_bytes",
		"Compressed bytes currently held by the tier.",
		func() float64 { return float64(t.Bytes()) }, labels...)
	reg.GaugeFunc("trackfm_ctier_budget_bytes",
		"The tier's current compressed-byte budget.",
		func() float64 { return float64(t.Budget()) }, labels...)
	reg.GaugeFunc("trackfm_ctier_objects",
		"Objects currently resident in the compressed tier.",
		func() float64 { return float64(t.Len()) }, labels...)
	reg.GaugeFunc("trackfm_ctier_compression_ratio",
		"Raw bytes over compressed bytes across resident entries.",
		func() float64 {
			b := t.Bytes()
			if b == 0 {
				return 0
			}
			return float64(t.RawBytes()) / float64(b)
		}, labels...)
}

// removeLocked unlinks key from the map and byte accounting. The ring
// keeps its (now stale) copy of the key; pops skip it lazily. The
// caller owns releasing the entry's lease.
func (t *Tier) removeLocked(key uint64, e entry) {
	delete(t.entries, key)
	t.bytes -= uint64(len(e.data))
}

// noteGhost records key in the bounded ghost set.
func (t *Tier) noteGhost(key uint64) {
	if _, ok := t.ghost[key]; !ok {
		t.ghost[key] = struct{}{}
		t.ghostFIFO.push(key)
	}
	limit := 2*len(t.entries) + 16
	for len(t.ghost) > limit {
		k, ok := t.ghostFIFO.pop()
		if !ok {
			break
		}
		delete(t.ghost, k)
	}
}

// evictToFit evicts until need more bytes fit in the budget; false means
// it could not (should not happen while entries remain, but guards the
// pathological empty-tier case).
func (t *Tier) evictToFit(need uint64) bool {
	for t.bytes+need > t.cfg.Budget {
		if !t.evictClock() {
			return false
		}
	}
	return true
}

// evictClock drops the first live entry in the ring without a second
// chance, spending the chances it passes. Nothing sets a chance here, so
// one lap always ends in an eviction. Returns false when the tier is empty.
func (t *Tier) evictClock() bool {
	for {
		k, ok := t.clock.pop()
		if !ok {
			return false
		}
		e, live := t.entries[k]
		if !live {
			continue // stale ring slot
		}
		if e.chance {
			e.chance = false
			t.entries[k] = e
			t.clock.push(k)
			continue
		}
		t.removeLocked(k, e)
		e.lease.Release()
		t.stats.evictions.Add(1)
		t.noteGhost(k)
		return true
	}
}
