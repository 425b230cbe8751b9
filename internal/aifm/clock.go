package aifm

import (
	"math"
	"sync/atomic"

	"trackfm/internal/sim"
)

// The pool's eviction clock: one hand sweeping the slot table, a count of
// the residents a prefetch may displace, and the ghost ring and sampler
// that turn evictions into the thrash detector's re-fault signal.

const (
	// ghostRing is the per-stripe eviction-history depth of the thrash
	// detector: with 64 stripes it remembers the last 2048 evictions
	// pool-wide.
	ghostRing = 32

	// thrashSampleEvery and thrashAlpha shape the EWMA thrash ratio: the
	// re-fault fraction of every thrashSampleEvery remote fetches folds
	// into the ratio with weight thrashAlpha.
	thrashSampleEvery = 32
	thrashAlpha       = 0.3
)

// evictClock is the clock state a Pool embeds.
type evictClock struct {
	hand atomic.Uint64 // clock hand over slots

	// cold counts the residents a gentle take may evict: present, neither
	// hot nor prefetched (pins aside). storeMeta keeps it, comparing the
	// word it replaces with the one it publishes; it is the pool's one
	// writer of a metadata word, and runs under the object's stripe lock.
	cold atomic.Int64
}

// cold reports whether m is a resident a gentle take may evict, pins aside.
func (m Meta) cold() bool { return m&(MetaP|MetaH|MetaPF) == MetaP }

// ghosts is a stripe's eviction history: its most recent evictions (id +
// eviction cycle), consulted on install to detect re-faults. Fixed arrays
// so the eviction path stays allocation-free; all access is under the
// stripe's mutex, which both the evictor and the installing fetch leader
// already hold.
type ghosts struct {
	ghostID  [ghostRing]ObjectID
	ghostCyc [ghostRing]uint64
	ghostPos int
}

// storeMeta publishes id's metadata word, keeping the cold count. The
// caller holds id's stripe lock.
func (p *Pool) storeMeta(id ObjectID, m Meta) {
	old := Meta(atomic.SwapUint64((*uint64)(&p.table[id]), uint64(m)))
	switch {
	case m.cold() && !old.cold():
		p.cold.Add(1)
	case old.cold() && !m.cold():
		p.cold.Add(-1)
	}
}

// probeVictim advances the clock hand one slot and, if the slot holds a
// resident, unpinned object whose stripe nobody is working in, returns that
// object with its stripe locked; st is nil when the slot is no candidate,
// and busy reports that it held a resident whose stripe was locked.
// Victims are taken with TryLock — an evictor never blocks on a stripe
// someone else holds (a mutator there means the object is not cold), it
// just moves the hand on — which also rules out lock-order deadlocks: no
// goroutine ever waits for a second stripe while holding one. A resident
// whose metadata word, read before the lock, says pass (tryTakeSlot's)
// would neither take nor touch it is no candidate, and its stripe is not
// locked at all; any other pass probes every resident.
func (p *Pool) probeVictim(pass int) (st *stripe, slot uint32, id ObjectID, m Meta, busy bool) {
	slot = uint32((p.hand.Add(1) - 1) % uint64(len(p.slotOwner)))
	id = p.ownerAt(int(slot))
	if id == noOwner {
		return nil, 0, 0, 0, false
	}
	switch m = p.metaAt(id); {
	case pass == 0 && !m.Prefetched(), pass == 1 && p.protectPF && m.Prefetched() && !m.Hot():
		return nil, 0, 0, 0, false
	}
	st = p.stripeFor(id)
	if !st.mu.TryLock() {
		return nil, 0, 0, 0, true
	}
	if m = p.metaAt(id); p.ownerAt(int(slot)) != id || st.pins[id] > 0 || !m.Present() {
		st.mu.Unlock()
		return nil, 0, 0, 0, false
	}
	return st, slot, id, m, false
}

// tryTakeSlotGentle returns a free slot, or evicts a cold (H-clear,
// unpinned) object without clearing anyone's hotness bit. Used by the
// prefetcher so speculation cannot displace demand-loaded data — nor
// another not-yet-consumed prefetch, or a deep prefetch window would churn
// its own speculative fetches into double work.
func (p *Pool) tryTakeSlotGentle() (uint32, bool) {
	if slot, ok := p.popFree(); ok {
		return slot, true
	}
	if p.cold.Load() == 0 {
		// The lap below would take nothing and change nothing: it moves the
		// hand by exactly one turn of the table and evicts no one.
		return 0, false
	}
	for i := 0; i < len(p.slotOwner); i++ {
		st, slot, id, m, _ := p.probeVictim(-1)
		if st == nil {
			continue
		}
		ok := m.cold() && p.evictLocked(slot, id)
		st.mu.Unlock()
		if ok {
			return slot, true
		}
	}
	return 0, false
}

// tryTakeSlot returns a free slot if one exists or can be made by evicting
// an unpinned object. Pass 0 runs only while throttled and reclaims
// prefetched-but-unused residents — the cheapest slots to take back while
// the pool is thrashing, since evicting them can never cost a demand
// re-fault. Pass 1 is the clock with second chance: hot objects get their
// H bit cleared, and under Config.ProtectPrefetch a prefetched-but-
// unconsumed object is skipped too (evicting it would throw away a fetch
// already paid for before its use arrives). That ranking is reasonable
// when memory is ample and exactly wrong under pressure — it places
// speculative fills above the resident working set — which is why pass 0
// inverts it. Pass 2 evicts any unpinned object regardless. When it finds
// no slot, blocked reports that the laps passed over a resident that may
// be takable a moment later: its stripe was busy, or its eviction was
// refused (a dirty write-back that did not go through).
func (p *Pool) tryTakeSlot() (slot uint32, ok, blocked bool) {
	if slot, ok := p.popFree(); ok {
		return slot, true, false
	}
	pass := 1
	if p.throttled.Load() {
		pass = 0
	}
	for ; pass <= 2; pass++ {
		for i := 0; i < len(p.slotOwner); i++ {
			st, slot, id, m, busy := p.probeVictim(pass)
			if st == nil {
				blocked = blocked || busy
				continue
			}
			take := true
			switch pass {
			case 0:
				take = m.Prefetched()
			case 1:
				take = !m.Hot() && !(p.protectPF && m.Prefetched())
				if m.Hot() {
					p.storeMeta(id, m&^MetaH)
				}
			}
			ok := take && p.evictLocked(slot, id)
			st.mu.Unlock()
			if ok {
				return slot, true, false
			}
			blocked = blocked || take
		}
	}
	return 0, false, blocked
}

// evictLocked evacuates the object owning slot to the remote node. The
// caller holds id's stripe lock and has verified ownership and a zero pin
// count. It reports whether the eviction completed: when a dirty object's
// write-back fails past the retry budget, the object stays resident and
// dirty (it is the only copy of the data — dropping it would be silent
// corruption), the stall is counted, and the caller moves on to another
// victim. This is the "pin and degrade" path: under a persistent remote
// outage every dirty object effectively pins itself until the fabric
// heals.
func (p *Pool) evictLocked(slot uint32, id ObjectID) bool {
	start := p.env.Clock.Cycles()
	defer func() { p.lat.Evacuation.Observe(p.env.Clock.Cycles() - start) }()
	p.env.Clock.Advance(p.env.Costs.EvacuateObject)
	// Write back and demote straight from the slot: the victim is unpinned
	// and its stripe lock is held, so its bytes are stable. The engine
	// refuses a dirty object it cannot push (or will not, while degraded):
	// clean evictions still make room.
	if !p.far.Evict(uint64(id), p.slotBytes(uint64(slot)*uint64(p.objSize)), p.metaAt(id).Dirty()) {
		return false
	}
	p.storeMeta(id, RemoteMeta(id, uint32(p.objSize), dsID))
	p.setOwner(int(slot), noOwner)
	p.resident.Add(-1)
	// Remember the eviction in the stripe's ghost ring: a re-fetch within
	// the thrash window is the detector's re-fault signal.
	st := p.stripeFor(id)
	st.ghostID[st.ghostPos] = id
	st.ghostCyc[st.ghostPos] = p.env.Clock.Cycles()
	st.ghostPos = (st.ghostPos + 1) % ghostRing
	sim.Inc(&p.env.Counters.Evacuations)
	return true
}

// consumeGhostLocked reports whether id was evicted within the thrash
// window, consuming its ghost entry so one eviction yields at most one
// re-fault. The caller holds id's stripe lock.
func (p *Pool) consumeGhostLocked(st *stripe, id ObjectID) bool {
	for i := range st.ghostID {
		if st.ghostID[i] == id {
			st.ghostID[i] = noOwner
			return p.env.Clock.Cycles()-st.ghostCyc[i] <= p.thrashWindow
		}
	}
	return false
}

// noteFetchSample feeds the thrash detector: every thrashSampleEvery
// remote fetches, the window's re-fault fraction folds into the EWMA
// ratio. Remote-fetch slow path only — a round-trip was already paid, so
// the small mutex adds nothing observable.
func (p *Pool) noteFetchSample(refault bool) {
	p.thrashMu.Lock()
	p.twFetches++
	if refault {
		p.twRefaults++
	}
	if p.twFetches >= thrashSampleEvery {
		ratio := float64(p.twRefaults) / float64(p.twFetches)
		old := math.Float64frombits(p.thrashEWMA.Load())
		p.thrashEWMA.Store(math.Float64bits(old + thrashAlpha*(ratio-old)))
		p.twFetches, p.twRefaults = 0, 0
	}
	p.thrashMu.Unlock()
}
