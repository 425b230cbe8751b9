package aifm

import (
	"errors"
	"strings"
	"testing"

	"trackfm/internal/fabric"
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
	p.Localize(id, true)
	p.Write(id, 0, []byte{b})
	p.EvacuateAll()
	if p.Meta(id).Present() {
		t.Fatalf("object %d still resident after EvacuateAll", id)
	}
}

func TestTryLocalizeSurfacesTypedErrorNotZeros(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendTCP)}
	p := faultyPool(t, link, env, 3)
	evacuate(t, p, 5, 0x7F)

	link.failFetch = 1 << 30 // persistent outage
	_, _, err := p.TryLocalize(5, false)
	if !errors.Is(err, fabric.ErrRemoteUnavailable) {
		t.Fatalf("TryLocalize under outage = %v, want ErrRemoteUnavailable", err)
	}
	// Metadata must be untouched: the object is still remote, not a
	// zero-filled resident ghost.
	if p.Meta(5).Present() {
		t.Fatalf("failed localize left object marked resident")
	}
	// After the fabric heals, the same object localizes with its data
	// intact.
	link.failFetch = 0
	if _, _, err := p.TryLocalize(5, false); err != nil {
		t.Fatalf("TryLocalize after heal: %v", err)
	}
	var got [1]byte
	p.Read(5, 0, got[:])
	if got[0] != 0x7F {
		t.Fatalf("read %#x after heal, want 0x7F", got[0])
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
	p.Localize(0, true)
	p.Write(0, 0, []byte{10})
	p.Localize(1, true)
	p.Write(1, 0, []byte{11})

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
	if _, _, err := p.TryLocalize(0, false); err != nil {
		t.Fatalf("TryLocalize after heal: %v", err)
	}
	var got [1]byte
	p.Read(0, 0, got[:])
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
	p.Read(2, 0, got[:])
	if got[0] != 42 {
		t.Fatalf("prefetched data = %d, want 42", got[0])
	}
}
