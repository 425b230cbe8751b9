package aifm

import (
	"trackfm/internal/fabric"
	"trackfm/internal/far"
)

// The pending window: prefetches whose bytes are still in flight. Over a
// transport that completes a started fetch at once (SimLink, and everything
// behind the fabric helper's blocking fallback) nothing here ever holds an
// entry; over TCPTransport's prefetch stream this is where the overlap the
// paper's chunked loops rely on (§3.4) lives between Prefetch and the
// access that wants the object.

// pendingWindow bounds the prefetches in flight. It is the TCP transport's
// own ring size, so a pool that keeps to its window never finds that ring
// full (the transport would then fetch synchronously).
const pendingWindow = fabric.StreamRing

// pendingPrefetch is a prefetch whose bytes are still on their way into
// slot. The slot is neither free nor resident and the object's inflight
// claim is set, so no evictor, fetch leader or second prefetch touches
// either until the prefetch is finished — by a demand access that wants the
// object, by a newer prefetch needing the window's oldest place, or by a
// drain.
type pendingPrefetch struct {
	id   ObjectID
	slot uint32
	pf   far.Prefetch
}

// popPending takes the oldest prefetch out of the window for the caller to
// finish — only if the window is full, when ifFull is set.
func (p *Pool) popPending(ifFull bool) (pendingPrefetch, bool) {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	if len(p.pending) == 0 || ifFull && len(p.pending) < pendingWindow {
		return pendingPrefetch{}, false
	}
	pp := p.pending[0]
	p.pending = append(p.pending[:0], p.pending[1:]...)
	return pp, true
}

// parkPending records a prefetch in flight at the young end of the window.
// Prefetch made room before it started the fetch; if concurrent prefetchers
// have filled the window since, the oldest is finished first here too.
//
// From its inflight claim up to this point the prefetching goroutine was
// driving the fetch, and anyone who wanted the object meanwhile found the
// claim, found nothing in the window to take over, and went to sleep on the
// stripe's rendezvous. Parking hands the fetch to whoever wants it next, so
// it ends with the same broadcast an install or an abandon ends with: the
// sleepers re-check and one of them takes the prefetch over. The broadcast
// is made under the stripe lock — a waiter holds it from its look in the
// window until it is on the rendezvous, so it sees either the parked record
// or the wake-up.
func (p *Pool) parkPending(pp pendingPrefetch) {
	for {
		p.pendMu.Lock()
		if len(p.pending) < pendingWindow {
			p.pending = append(p.pending, pp)
			p.pendMu.Unlock()
			break
		}
		p.pendMu.Unlock()
		if oldest, ok := p.popPending(true); ok {
			p.finishPending(oldest)
		}
	}
	st := p.stripeFor(pp.id)
	p.lockStripe(st)
	st.done.Broadcast()
	st.mu.Unlock()
}

// takePending removes id's prefetch from the window, if it is there.
// pendMu is a leaf: callers may hold a stripe lock.
func (p *Pool) takePending(id ObjectID) (pendingPrefetch, bool) {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	for i, pp := range p.pending {
		if pp.id == id {
			p.pending = append(p.pending[:i], p.pending[i+1:]...)
			return pp, true
		}
	}
	return pendingPrefetch{}, false
}

// finishPending completes a prefetch taken from the window: it waits for
// the bytes — holding no pool lock — and installs the object, or, if the
// fetch failed, returns the slot and abandons the claim, leaving the object
// remote for a demand fetch to recover. Any goroutine may finish any
// pending prefetch; whoever took it from the window owns it.
func (p *Pool) finishPending(pp pendingPrefetch) {
	st := p.stripeFor(pp.id)
	if _, err := p.far.FinishPrefetch(pp.pf); err != nil {
		p.giveSlot(pp.slot)
		p.abandonFetch(st, pp.id)
		return
	}
	p.installPrefetched(st, pp.id, pp.slot, false, false)
}

// finishPendingLocked is finishPending for a caller that holds id's stripe
// lock and found id claimed: if the claim is a prefetch still in the
// window, it drops the lock, finishes the prefetch, re-takes the lock and
// reports true; otherwise somebody is already driving the fetch and it
// reports false with the lock never released.
func (p *Pool) finishPendingLocked(st *stripe, id ObjectID) bool {
	pp, ok := p.takePending(id)
	if !ok {
		return false
	}
	st.mu.Unlock()
	p.finishPending(pp)
	p.lockStripe(st)
	return true
}

// drainPending finishes every prefetch in the window, oldest first, and
// reports whether there was any. The pool drains before it concludes that
// no slot can be found and before Resize, EvacuateAll and Close, which must
// see every slot as free or resident.
func (p *Pool) drainPending() bool {
	any := false
	for {
		pp, ok := p.popPending(false)
		if !ok {
			return any
		}
		p.finishPending(pp)
		any = true
	}
}

// PendingPrefetches reports how many prefetches are in flight: their slots
// are claimed, their objects not yet resident.
func (p *Pool) PendingPrefetches() int {
	p.pendMu.Lock()
	n := len(p.pending)
	p.pendMu.Unlock()
	return n
}
