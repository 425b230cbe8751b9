package aifm

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/far"
	"trackfm/internal/sim"
)

// faultyLink is an ErrorTransport whose fetches/pushes fail on command.
type faultyLink struct {
	*fabric.SimLink
	failFetch int // fail this many fetch attempts, then succeed
	failPush  int // fail this many push attempts, then succeed
}

func (f *faultyLink) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	if f.failFetch > 0 {
		f.failFetch--
		return false, fabric.ErrRemoteUnavailable
	}
	return f.SimLink.TryFetchUntil(key, dst, dl)
}

func (f *faultyLink) StartFetch(key uint64, dst []byte) (fabric.Ticket, error) {
	found, err := f.TryFetchUntil(key, dst, fabric.Deadline{})
	return fabric.CompleteTicket(found), err
}

func (f *faultyLink) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	if f.failPush > 0 {
		f.failPush--
		return fabric.ErrRemoteUnavailable
	}
	return f.SimLink.TryPushUntil(key, src, dl)
}

func faultyPool(t *testing.T, link *faultyLink, env *sim.Env, retries int) *Pool {
	t.Helper()
	p, err := NewPool(Config{
		Env:          env,
		RemoteConfig: fabric.RemoteConfig{Transport: link, RemoteRetries: retries},
		ObjectSize:   64,
		HeapSize:     64 * 16,
		LocalBudget:  64 * 2, // two slots: easy to force eviction
	})
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p
}

// evacuate writes an object and forces it remote.
func evacuate(t *testing.T, p *Pool, id ObjectID, b byte) {
	t.Helper()
	access(t, p, id, 0, []byte{b}, true)
	p.EvacuateAll()
	if p.Meta(id).Present() {
		t.Fatalf("object %d still resident after EvacuateAll", id)
	}
}

// TestFailedFetchLeavesNoTrace holds both client protocols, Access and
// Pin, to what a fetch the far engine gives up on leaves behind: the typed
// error and nothing else — the caller's buffer, the object's metadata word,
// the slot the fetch claimed and the pin counts all as they were, so the
// caller never sees a zero-filled ghost of its data. Two failure sources:
// a FaultLink outage (the transport fails) and a degraded engine (it
// refuses to fetch). Once the source clears, the object reads back intact.
func TestFailedFetchLeavesNoTrace(t *testing.T) {
	const id, bystander, val = ObjectID(5), ObjectID(1), byte(0x7F)
	// prepare makes id remote, holding val, and pins a bystander, so the
	// pin count the failure must leave alone is not zero.
	prepare := func(t *testing.T, p *Pool) {
		evacuate(t, p, id, val)
		pin(t, p, bystander, false)
	}
	// outagePool is a two-slot pool over a FaultLink whose outage takes the
	// outageAt-th transport operation (none for 0). One attempt per fetch,
	// so the outage fails exactly one.
	outagePool := func(t *testing.T, outageAt int) (*Pool, *fabric.FaultLink) {
		env := sim.NewEnv()
		link := fabric.NewFaultLink(fabric.NewSimLink(env, fabric.BackendTCP),
			fabric.FaultConfig{OutageEvery: outageAt, OutageLen: 1})
		p, err := NewPool(Config{
			Env:          env,
			RemoteConfig: fabric.RemoteConfig{Transport: link, RemoteRetries: 1},
			ObjectSize:   64,
			HeapSize:     64 * 16,
			LocalBudget:  64 * 2,
		})
		if err != nil {
			t.Fatalf("NewPool: %v", err)
		}
		t.Cleanup(func() { p.Close() })
		prepare(t, p)
		return p, link
	}
	_, probe := outagePool(t, 0)
	setupOps := int(probe.Stats().Ops)

	sources := []struct {
		name string
		want error
		// pool returns a prepared pool whose next fetch of id fails, and
		// what clears the failure.
		pool func(t *testing.T) (*Pool, func())
	}{
		{"FaultLink outage", fabric.ErrRemoteUnavailable, func(t *testing.T) (*Pool, func()) {
			p, _ := outagePool(t, setupOps+1)
			return p, func() {}
		}},
		{"degraded", far.ErrDegraded, func(t *testing.T) (*Pool, func()) {
			p, _, _ := newTestPool(t, 64, 64*16, 64*2)
			prepare(t, p)
			p.Far().ForceDegrade(true)
			return p, func() { p.Far().ForceDegrade(false) }
		}},
	}
	ops := []struct {
		name string
		do   func(p *Pool, buf []byte) (win []byte, err error)
	}{
		{"Access read", func(p *Pool, buf []byte) ([]byte, error) { return nil, p.Access(id, 0, buf, false) }},
		{"Access write", func(p *Pool, buf []byte) ([]byte, error) { return nil, p.Access(id, 0, buf, true) }},
		{"Pin read", func(p *Pool, _ []byte) ([]byte, error) { win, _, err := p.Pin(id, false); return win, err }},
		{"Pin write", func(p *Pool, _ []byte) ([]byte, error) { win, _, err := p.Pin(id, true); return win, err }},
	}
	sentinel := bytes.Repeat([]byte{0xEE}, 8)
	for _, src := range sources {
		for _, op := range ops {
			t.Run(src.name+"/"+op.name, func(t *testing.T) {
				p, heal := src.pool(t)
				buf := bytes.Clone(sentinel)
				meta, free, reserve := p.Meta(id), p.freeCount(), p.ReserveFree()
				pinned, resident := p.PinnedObjects(), p.ResidentSlots()

				win, err := op.do(p, buf)
				if !errors.Is(err, src.want) {
					t.Fatalf("error %v, want %v", err, src.want)
				}
				if win != nil {
					t.Errorf("a failed Pin lent a %d-byte window", len(win))
				}
				if !bytes.Equal(buf, sentinel) {
					t.Errorf("buf %x after the failure, want %x", buf, sentinel)
				}
				if m := p.Meta(id); m != meta {
					t.Errorf("metadata word %#x after the failure, want %#x", uint64(m), uint64(meta))
				}
				if f, r := p.freeCount(), p.ReserveFree(); f != free || r != reserve {
					t.Errorf("%d free and %d reserve slots after the failure, want %d and %d", f, r, free, reserve)
				}
				if n, st := p.PinnedObjects(), p.stripeFor(id); n != pinned || st.pins[id] != 0 {
					t.Errorf("%d pinned objects and %d pins on the object after the failure, want %d and 0", n, st.pins[id], pinned)
				}
				if n := p.ResidentSlots(); n != resident {
					t.Errorf("%d resident slots after the failure, want %d", n, resident)
				}

				heal()
				var got [1]byte
				access(t, p, id, 0, got[:], false)
				if got[0] != val {
					t.Fatalf("read %#x once the failure cleared, want %#x", got[0], val)
				}
			})
		}
	}
}

func TestLocalizePanicsOnUnrecoverableFetch(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendTCP)}
	p := faultyPool(t, link, env, 2)
	evacuate(t, p, 1, 9)

	link.failFetch = 1 << 30
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("Localize with dead fabric did not panic")
		}
		if !strings.Contains(r.(string), "unrecoverable remote fetch") {
			t.Fatalf("panic = %v", r)
		}
	}()
	p.Localize(1, false)
}

func TestEvictionStallsKeepDirtyDataResident(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendTCP)}
	p := faultyPool(t, link, env, 2)

	// Fill both slots with dirty objects.
	access(t, p, 0, 0, []byte{10}, true)
	access(t, p, 1, 0, []byte{11}, true)

	// With pushes dead, EvacuateAll must stall rather than drop the only
	// copy of the dirty data.
	link.failPush = 1 << 30
	p.EvacuateAll()
	if env.Counters.EvictionStalls == 0 {
		t.Fatalf("no eviction stalls recorded under dead push path")
	}
	if !p.Meta(0).Present() || !p.Meta(1).Present() {
		t.Fatalf("dirty object evicted while its write-back was failing")
	}
	// Heal the fabric: eviction proceeds and the data round-trips.
	link.failPush = 0
	p.EvacuateAll()
	if p.Meta(0).Present() {
		t.Fatalf("EvacuateAll after heal left object resident")
	}
	var got [1]byte
	access(t, p, 0, 0, got[:], false)
	if got[0] != 10 {
		t.Fatalf("read %d after stall-then-heal eviction, want 10", got[0])
	}
}

func TestPrefetchSkipsOnFetchFault(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendTCP)}
	p := faultyPool(t, link, env, 2)
	evacuate(t, p, 2, 42)

	link.failFetch = 1 << 30
	p.Prefetch(2)
	if p.Meta(2).Present() {
		t.Fatalf("failed prefetch installed a zero-filled ghost")
	}
	link.failFetch = 0
	p.Prefetch(2)
	if !p.Meta(2).Present() {
		t.Fatalf("prefetch after heal did not localize")
	}
	var got [1]byte
	access(t, p, 2, 0, got[:], false)
	if got[0] != 42 {
		t.Fatalf("prefetched data = %d, want 42", got[0])
	}
}
