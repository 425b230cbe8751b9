package aifm

import (
	"time"

	"trackfm/internal/sim"
)

// evacuator is the pool's background reclaim goroutine, the concurrent
// form of the paper's evacuator (§4.2-4.4). It keeps a low watermark of
// free slots so demand misses rarely pay for an eviction inline:
//
//  1. mark: sweep the clock hand, tag cold unpinned residents with MetaE
//     (the evacuation-candidate bit the guard fast path tests);
//  2. finalize: re-check each candidate under its stripe lock and evict
//     it, unless it was pinned or touched (went hot) since the mark — in
//     which case the E bit is cleared and the abort counted.
//
// Nothing waits between the two. AIFM's out-of-scope barrier exists so
// that no thread is mid-dereference when an object moves; here every
// access either holds a pin or copies under the object's stripe lock, and
// finalize takes that lock and honours those pins, so the re-check is the
// whole safety argument and a wait would only delay the free slot.
type evacuator struct {
	p    *Pool
	kick chan struct{}
	stop chan struct{}
	done chan struct{}
}

// lowWater is the free-slot level below which the evacuator sweeps, and
// batch the candidates it marks per sweep. Both derive from the current
// Resize target, not the allocation-time capacity, so an elastic pool's
// evacuator tracks its budget. The evacuator only ever refills the free
// stack (giveSlot repays the reserve floor first) — it never draws the
// reserve down, so the floor is respected by construction.
func (e *evacuator) lowWater() int  { return e.p.NumSlots()/8 + 1 }
func (e *evacuator) batchSize() int { return e.p.NumSlots()/8 + 1 }

// StartEvacuator launches the background evacuator goroutine; it is a
// no-op when one is already running. NewPool calls it for
// Config.BackgroundEvacuate pools.
func (p *Pool) StartEvacuator() {
	e := &evacuator{
		p:    p,
		kick: make(chan struct{}, 1),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	if !p.evac.CompareAndSwap(nil, e) {
		return
	}
	go e.run()
}

// StopEvacuator stops the background evacuator and waits for it to exit;
// no-op when none is running. Close calls it.
func (p *Pool) StopEvacuator() {
	e := p.evac.Load()
	if e == nil || !p.evac.CompareAndSwap(e, nil) {
		return
	}
	close(e.stop)
	<-e.done
}

// kickEvacuator nudges the evacuator when the free-slot stack is running
// low; called from the slot allocator's fast path.
func (p *Pool) kickEvacuator() {
	e := p.evac.Load()
	if e == nil {
		return
	}
	if p.freeCount() >= e.lowWater() {
		return
	}
	select {
	case e.kick <- struct{}{}:
	default:
	}
}

func (e *evacuator) run() {
	defer close(e.done)
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-e.kick:
		case <-tick.C:
		}
		for e.p.freeCount() < e.lowWater() {
			select {
			case <-e.stop:
				return
			default:
			}
			if !e.finalize(e.mark()) {
				break // nothing evictable right now; wait for the next kick
			}
		}
	}
}

// candidate is a resident the mark step tagged with MetaE.
type candidate struct {
	slot uint32
	id   ObjectID
}

// mark advances the clock hand, second-chancing hot objects and tagging
// cold unpinned residents as evacuation candidates. Every guard that
// consults the safety mask from here on sees E set and takes the slow path.
func (e *evacuator) mark() []candidate {
	p := e.p
	var cands []candidate
	batch := e.batchSize()
	for i := 0; i < 2*len(p.slotOwner) && len(cands) < batch; i++ {
		st, slot, id, m := p.probeVictim()
		if st == nil {
			continue
		}
		if m.Hot() {
			p.storeMeta(id, m&^MetaH)
		} else {
			p.storeMeta(id, m|MetaE)
			cands = append(cands, candidate{slot, id})
		}
		st.mu.Unlock()
	}
	return cands
}

// finalize evicts the candidates that survived, aborts those that were
// pinned or re-touched since the mark, and reports whether it freed at
// least one slot.
func (e *evacuator) finalize(cands []candidate) bool {
	p := e.p
	freed := 0
	for _, c := range cands {
		st := p.stripeFor(c.id)
		p.lockStripe(st)
		if p.ownerAt(int(c.slot)) != c.id {
			st.mu.Unlock()
			continue // freed or already evicted by a demand-miss evictor
		}
		m := p.metaAt(c.id)
		if !m.Present() || m&MetaE == 0 {
			st.mu.Unlock()
			continue
		}
		if st.pins[c.id] > 0 || m.Hot() {
			p.storeMeta(c.id, m&^MetaE)
			sim.Inc(&p.env.Counters.EvacAborts)
			st.mu.Unlock()
			continue
		}
		if p.evictLocked(c.slot, c.id) {
			p.giveSlot(c.slot)
			freed++
		} else {
			// Write-back stalled: the object stays resident; clear E so
			// mutators regain the fast path.
			p.storeMeta(c.id, p.metaAt(c.id)&^MetaE)
			sim.Inc(&p.env.Counters.EvacAborts)
		}
		st.mu.Unlock()
	}
	return freed > 0
}
