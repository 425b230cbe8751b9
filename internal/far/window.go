package far

import (
	"sync"
	"sync/atomic"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
)

// wbWindow is how many evicted dirty units the write-behind window holds
// at once. It bounds what an outage can cost in memory — wbWindow units
// beyond the local budget — and how many pushes one exchange carries.
const wbWindow = 8

const (
	wbFree     = uint8(iota)
	wbParked   // holds a copy nobody is sending
	wbInFlight // claimed by an exchange: its lease is being read, lock-free
)

// wbEntry is one parked copy of an evicted dirty unit.
type wbEntry struct {
	key   uint64
	lease bufpool.Lease
	state uint8
}

// wbBatch is what one exchange carries: the parked entries it claimed, as
// the pushes the transport is handed. Batches live in the window, one per
// exchange that can be in flight at once, so that handing one over
// allocates nothing.
type wbBatch struct {
	pushes [wbWindow]fabric.Push
	idx    [wbWindow]uint8 // pushes[i] is entries[idx[i]]
	n      int
}

// window is the write-behind window of an engine whose transport is a
// fabric.PushCarrier: Evict parks a copy of a dirty unit here and returns,
// and the copy rides ahead of the next exchange that goes to the wire.
// This file is the bookkeeping, all of it under mu and none of it I/O;
// the engine does the exchanges and the accounting, and never holds mu
// across one. The rules:
//
//  1. A fetch of a parked key is served from the newest parked copy.
//  2. Two pushes of one key are never on the wire at once: a copy nobody
//     is sending is overwritten in place, and a copy parked while an older
//     one is in flight waits for that one's exchange to end.
//  3. An entry leaves on its ack and not before; a failed exchange makes
//     its entries sendable again.
//  4. A full window refuses to park, and the caller keeps the unit.
//  5. A deleted key's unsent copies are dropped, not pushed.
//
// A nil *window is valid and empty, as a nil *ctier.Tier is: engines over
// other transports have none and push synchronously.
type window struct {
	carrier fabric.PushCarrier
	unit    int // the bytes of a parked copy: an exact bufpool class

	mu      sync.Mutex
	entries [wbWindow]wbEntry
	batches [wbWindow]wbBatch // every in-flight batch holds >= 1 entry, so these suffice
	idle    []*wbBatch        // the batches no exchange holds

	depth    atomic.Int32  // entries not free
	forwards atomic.Uint64 // fetches served from a parked copy
}

func newWindow(carrier fabric.PushCarrier, unit int) *window {
	w := &window{carrier: carrier, unit: unit, idle: make([]*wbBatch, 0, wbWindow)}
	for i := range w.batches {
		w.idle = append(w.idle, &w.batches[i])
	}
	return w
}

// parked reports how many entries hold a copy, sendable or on the wire.
func (w *window) parked() int32 {
	if w == nil {
		return 0
	}
	return w.depth.Load()
}

// forwarded reports how many fetches were served from a parked copy.
func (w *window) forwarded() uint64 {
	if w == nil {
		return 0
	}
	return w.forwards.Load()
}

// find returns the entry holding key in the given state, or nil.
func (w *window) find(key uint64, state uint8) *wbEntry {
	for i := range w.entries {
		if e := &w.entries[i]; e.state == state && e.key == key {
			return e
		}
	}
	return nil
}

func (w *window) release(e *wbEntry) {
	e.lease.Release()
	*e = wbEntry{}
	w.depth.Add(-1)
}

// park copies src into the window as the newest copy of key, reporting
// false when the window is full.
func (w *window) park(key uint64, src []byte) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.find(key, wbParked)
	if e == nil {
		if e = w.find(0, wbFree); e == nil { // a free entry is the zero entry
			return false
		}
		*e = wbEntry{key: key, lease: bufpool.Get(w.unit), state: wbParked}
		w.depth.Add(1)
	}
	copy(e.lease.Bytes(), src)
	return true
}

// forward fills dst from the newest parked copy of key, reporting whether there was one. A copy nobody is sending is
// newer than one in flight: it was parked behind it.
func (w *window) forward(key uint64, dst []byte) bool {
	if w.parked() == 0 { // the common case, and no lock: nobody parks a key while it is being fetched
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	e := w.find(key, wbParked)
	if e == nil {
		if e = w.find(key, wbInFlight); e == nil {
			return false
		}
	}
	copy(dst, e.lease.Bytes())
	w.forwards.Add(1)
	return true
}

// claim marks every sendable entry in flight and returns them as a batch,
// or nil when there is none: parked entries whose key has no older copy on
// the wire. The caller sends the batch and hands it to settle.
func (w *window) claim() *wbBatch {
	if w.parked() == 0 { // an entry parked this instant rides the next exchange
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var b *wbBatch
	for i := range w.entries {
		e := &w.entries[i]
		if e.state != wbParked || w.find(e.key, wbInFlight) != nil {
			continue
		}
		if b == nil {
			b = w.idle[len(w.idle)-1]
			w.idle = w.idle[:len(w.idle)-1]
			b.n = 0
		}
		e.state = wbInFlight
		b.pushes[b.n] = fabric.Push{Key: e.key, Src: e.lease.Bytes()}
		b.idx[b.n] = uint8(i)
		b.n++
	}
	return b
}

// settle ends b's exchange. Acknowledged, its entries leave. Failed, they
// are parked again for the next exchange — except one whose key was parked
// again meanwhile: that newer copy supersedes it.
func (w *window) settle(b *wbBatch, acked bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := 0; i < b.n; i++ {
		e := &w.entries[b.idx[i]]
		if acked || w.find(e.key, wbParked) != nil {
			w.release(e)
		} else {
			e.state = wbParked
		}
	}
	w.idle = append(w.idle, b)
}

// drop discards the copies of key nobody is sending: the unit was freed.
// (One on the wire may land after the delete: the far blob it leaves is
// unreachable, as after a lost delete.)
func (w *window) drop(key uint64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if e := w.find(key, wbParked); e != nil {
		w.release(e)
	}
}

// clear sends every lease home. The engine is closing: nothing is in
// flight, and what a last flush could not push is lost with the rest of
// local memory.
func (w *window) clear() {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for i := range w.entries {
		if e := &w.entries[i]; e.state != wbFree {
			w.release(e)
		}
	}
}
