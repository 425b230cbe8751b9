package aifm

import (
	"sync/atomic"
	"testing"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// refusableStore refuses every Get, while armed, with a checksum failure:
// the server answers a one-byte refusal, so a prefetch already started
// fails when it is finished.
type refusableStore struct {
	*remote.Store
	refuse atomic.Bool
	gets   atomic.Int64
}

func (s *refusableStore) Get(key uint64, dst []byte) (bool, error) {
	defer s.gets.Add(1)
	if s.refuse.Load() {
		return false, remote.ErrChecksum
	}
	return s.Store.Get(key, dst)
}

const pendObj = 256

// loopbackPool is a pool over a real TCP transport to an in-process server,
// the one configuration in which a prefetch stays in flight after Prefetch
// returns. Objects 0..objs-1 are written (object id in every byte) and
// evacuated, so each is far and fetchable.
func loopbackPool(t *testing.T, objs, slots int, opts ...func(*Config)) (*Pool, *sim.Env, *refusableStore) {
	t.Helper()
	store := &refusableStore{Store: remote.NewStore()}
	srv := fabric.NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	env := sim.NewEnv()
	cfg := Config{Env: env, RemoteConfig: fabric.RemoteConfig{RemoteAddr: addr},
		ObjectSize: pendObj, HeapSize: uint64(objs) * pendObj, LocalBudget: uint64(slots) * pendObj}
	for _, o := range opts {
		o(&cfg)
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	fill := make([]byte, pendObj)
	for id := 0; id < objs; id++ {
		for i := range fill {
			fill[i] = byte(id)
		}
		access(t, p, ObjectID(id), 0, fill, true)
	}
	p.EvacuateAll()
	env.Reset()
	return p, env, store
}

// wantObject checks the window of pinned object id against what
// loopbackPool wrote.
func wantObject(t *testing.T, win []byte, id ObjectID) {
	t.Helper()
	if len(win) != pendObj {
		t.Fatalf("object %d: a %d-byte window, want %d", id, len(win), pendObj)
	}
	want := byte(id)
	for i, b := range win {
		if b != want {
			t.Fatalf("object %d byte %d = %#x, want %#x", id, i, b, want)
		}
	}
}

// checkSettled asserts the state every drain must leave: no prefetch in the
// window, no inflight claim in any stripe, and every slot accounted for as
// free, retired, reserve or resident — none stranded in between.
func checkSettled(t *testing.T, p *Pool) {
	t.Helper()
	if n := p.PendingPrefetches(); n != 0 {
		t.Errorf("%d prefetches still pending", n)
	}
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		if n := len(st.inflight); n != 0 {
			t.Errorf("stripe %d: %d inflight claims left", i, n)
		}
		st.mu.Unlock()
	}
	owned := 0
	for slot := range p.slotOwner {
		if p.ownerAt(slot) != noOwner {
			owned++
		}
	}
	p.freeMu.Lock()
	idle := len(p.freeSlots) + len(p.retired) + len(p.reserveFree)
	p.freeMu.Unlock()
	if owned != p.ResidentSlots() || idle+owned != len(p.slotOwner) {
		t.Errorf("slots: %d owned, %d resident, %d idle of %d", owned, p.ResidentSlots(), idle, len(p.slotOwner))
	}
}

// TestPendingWindowDrains: with the window full, each of the operations
// that must not leave a slot stranded — Free of the prefetched objects, a
// Resize to half, EvacuateAll, Close — settles every prefetch first, and
// every buffer lease comes home.
func TestPendingWindowDrains(t *testing.T) {
	const objs, slots = 64, 32
	for _, row := range []struct {
		name     string
		op       func(p *Pool)
		resident int
	}{
		{"Free", func(p *Pool) {
			for id := ObjectID(0); id < pendingWindow+2; id++ {
				p.Free(id)
			}
		}, 0},
		{"Resize to half", func(p *Pool) {
			if err := p.Resize(slots / 2 * pendObj); err != nil {
				t.Fatal(err)
			}
		}, slots / 2},
		{"EvacuateAll", func(p *Pool) { p.EvacuateAll() }, 0},
		{"Close", func(p *Pool) { p.Close() }, pendingWindow + 2},
	} {
		t.Run(row.name, func(t *testing.T) {
			bufpool.SetDebug(true)
			defer bufpool.SetDebug(bufpool.RaceEnabled)
			leases := bufpool.Outstanding()
			p, _, store := loopbackPool(t, objs, slots)
			for id := ObjectID(0); id < pendingWindow+2; id++ {
				p.Prefetch(id) // the last two push the oldest two out of the window
			}
			if n := p.PendingPrefetches(); n != pendingWindow {
				t.Fatalf("PendingPrefetches = %d, want a full window of %d", n, pendingWindow)
			}
			if !p.Meta(0).Present() || !p.Meta(1).Present() || p.Meta(2).Present() {
				t.Fatalf("a full window makes room by finishing its oldest prefetch first")
			}
			row.op(p)
			checkSettled(t, p)
			if got := p.ResidentSlots(); got != row.resident {
				t.Errorf("ResidentSlots = %d, want %d", got, row.resident)
			}
			if row.name == "Free" && p.Meta(5) != 0 {
				t.Errorf("a freed object's metadata survived its pending prefetch: %v", p.Meta(5))
			}
			p.Close()
			store.Clear() // the far copies hold leases of their own
			if n := bufpool.Outstanding() - leases; n != 0 {
				t.Errorf("%d buffer leases outstanding after Close", n)
			}
		})
	}
}

// TestPendingWindowDrainsBeforeExhaustion: half the slots are pinned and
// prefetches in flight hold all the others, so the clock finds no victim.
// Before concluding that every circulating slot is pinned — and borrowing
// from the reserve — a demand miss lands those prefetches and evicts one of
// them: the reserve is never touched.
func TestPendingWindowDrainsBeforeExhaustion(t *testing.T) {
	const slots = 2 * pendingWindow
	p, _, _ := loopbackPool(t, 3*slots, slots)
	for id := ObjectID(0); id < pendingWindow; id++ {
		pin(t, p, id, false)
	}
	for id := ObjectID(slots); id < slots+pendingWindow; id++ {
		p.Prefetch(id)
	}
	if n, free := p.PendingPrefetches(), p.freeCount(); n != pendingWindow || free != 0 {
		t.Fatalf("%d pending, %d free; want a full window holding every unpinned slot", n, free)
	}
	id := ObjectID(2 * slots)
	win, missed := pin(t, p, id, false)
	if !missed {
		t.Errorf("object %d was not fetched", id)
	}
	if free, floor := p.ReserveFree(), p.ReserveFloor(); free != floor {
		t.Errorf("reserve borrowed (%d of %d free) while landed prefetches could be evicted", free, floor)
	}
	wantObject(t, win, id)
	p.Unpin(id)
	for id := ObjectID(0); id < pendingWindow; id++ {
		p.Unpin(id)
	}
	checkSettled(t, p)
}

// gatedStart is a TCPTransport whose StartFetch, once armed, stops at a gate
// before it issues anything: it holds open the stretch of Pool.Prefetch
// between the object's inflight claim and the parking of its ticket.
type gatedStart struct {
	*fabric.TCPTransport
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g *gatedStart) StartFetch(key uint64, dst []byte) (fabric.Ticket, error) {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.TCPTransport.StartFetch(key, dst)
}

// TestClaimedButNotYetParkedPrefetch: an access that arrives between a
// prefetch's inflight claim and the parking of its ticket finds the claim
// and nothing in the window to take over, so it waits on the stripe's
// rendezvous — and the prefetcher, which parks and walks away, must wake it:
// nothing else in an otherwise idle pool ever would. The woken demand access
// takes the prefetch over (a prefetch hit); a woken Free lands it and frees
// the object.
func TestClaimedButNotYetParkedPrefetch(t *testing.T) {
	const id = ObjectID(3)
	var win []byte // the Pin row's window; nil if Pin failed, which wantObject reports
	for _, row := range []struct {
		name  string
		op    func(p *Pool)
		check func(t *testing.T, p *Pool, c sim.Counters)
	}{
		{"Pin", func(p *Pool) { win, _, _ = p.Pin(id, false) }, func(t *testing.T, p *Pool, c sim.Counters) {
			wantObject(t, win, id)
			p.Unpin(id)
			if c.PrefetchHits != 1 || c.CriticalFetches != 0 || c.RemoteFetches != 1 || c.SingleflightShared != 1 {
				t.Errorf("prefetchHits=%d criticalFetches=%d remoteFetches=%d singleflightShared=%d; want 1 0 1 1",
					c.PrefetchHits, c.CriticalFetches, c.RemoteFetches, c.SingleflightShared)
			}
		}},
		{"Free", func(p *Pool) { p.Free(id) }, func(t *testing.T, p *Pool, c sim.Counters) {
			if p.Meta(id) != 0 || p.ResidentSlots() != 0 {
				t.Errorf("freed object: meta %v, %d resident slots; want 0, 0", p.Meta(id), p.ResidentSlots())
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			g := &gatedStart{entered: make(chan struct{}), release: make(chan struct{})}
			p, env, _ := loopbackPool(t, 32, 16, func(c *Config) {
				tr, err := fabric.Dial(c.RemoteAddr)
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				t.Cleanup(func() { tr.Close() })
				g.TCPTransport = tr
				c.RemoteConfig = fabric.RemoteConfig{Transport: g}
			})
			g.armed.Store(true)
			prefetched := make(chan struct{})
			go func() { p.Prefetch(id); close(prefetched) }()
			<-g.entered // id is claimed, its slot taken, nothing parked yet

			done := make(chan struct{})
			go func() { row.op(p); close(done) }()
			// Let the access reach the rendezvous. (If it has not by the time
			// the gate opens it finds the ticket parked instead, and the test
			// passes without having tested anything: never a false alarm.)
			// A localize counts itself as sharing a fetch, under the stripe
			// lock, on its way there; Free leaves no trace, so it gets time.
			if row.name == "Free" {
				time.Sleep(50 * time.Millisecond)
			} else {
				for end := time.Now().Add(2 * time.Second); sim.Load(&env.Counters.SingleflightShared) == 0 && time.Now().Before(end); {
					time.Sleep(time.Millisecond)
				}
			}
			st := p.stripeFor(id)
			st.mu.Lock() // a waiter holds the stripe lock until it is on the rendezvous
			st.mu.Unlock()
			select {
			case <-done:
				t.Fatalf("%s returned while the prefetch had not even started", row.name)
			default:
			}

			g.armed.Store(false)
			close(g.release)
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s still asleep 5s after the prefetch was parked: nobody is driving that fetch", row.name)
			}
			<-prefetched
			row.check(t, p, env.Counters.Snapshot())
			checkSettled(t, p)
		})
	}
}
