package farmem

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/obs"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// scanHeap builds a heap holding a quarter of an n-element slice, filled by
// scalar Sets and evacuated, so a pass over it fetches, prefetches and
// evicts from a known state.
func scanHeap(t *testing.T, n int) (*Heap, *Uint64s) {
	t.Helper()
	h, err := New(Config{HeapBytes: uint64(n) * 16, LocalBytes: uint64(n) * 2, ObjectBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewBytes(h, 40); err != nil { // the slice starts mid-object
		t.Fatal(err)
	}
	s, err := NewUint64s(h, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		s.Set(i, uint64(i)*3+1)
	}
	h.rt.EvacuateAll()
	h.ResetStats()
	return h, s
}

type ledger struct {
	cycles   uint64
	counters sim.Counters
}

func ledgerOf(h *Heap) ledger {
	return ledger{h.env.Clock.Cycles(), h.env.Counters.Snapshot()}
}

// TestRangeCycleIdentity: Range and Fill leave the simulated clock and the
// whole counter block where the per-element cursor loop they replaced
// leaves them, wherever the callback stops.
func TestRangeCycleIdentity(t *testing.T) {
	const n, perObj = 4096, 256 / 8
	_, s0 := scanHeap(t, n)
	first := int(256-s0.base.HeapOffset()%256) / 8 // elements in the first, partial object
	if first == perObj {
		t.Fatalf("the slice is object-aligned; the test wants it skewed")
	}
	// First element, mid-chunk, the last element of a chunk and the first
	// of the next (early, and deep into eviction), the whole slice.
	for _, stop := range []int{0, first / 2, first - 1, first, first + 9*perObj - 1, first + 9*perObj, n - 1} {
		name := fmt.Sprintf("stop=%d", stop)

		h, s := scanHeap(t, n)
		var want uint64
		cur := h.rt.NewCursor(s.base, 8, true)
		for i := 0; i <= stop; i++ {
			want += cur.LoadU64(uint64(i))
		}
		cur.Close()
		ref := ledgerOf(h)

		h, s = scanHeap(t, n)
		var got uint64
		s.Range(func(i int, v uint64) bool { got += v; return i < stop })
		if l := ledgerOf(h); l != ref {
			t.Errorf("%s: Range %d cycles [%s]\nper-element loop %d cycles [%s]",
				name, l.cycles, l.counters.String(), ref.cycles, ref.counters.String())
		}
		if got != want || got == 0 {
			t.Errorf("%s: Range sum %d, per-element sum %d", name, got, want)
		}
		if n := h.rt.Pool().PinnedObjects(); n != 0 {
			t.Errorf("%s: %d objects pinned after Range", name, n)
		}
	}

	h, s := scanHeap(t, n)
	cur := h.rt.NewCursor(s.base, 8, true)
	for i := 0; i < n; i++ {
		cur.StoreU64(uint64(i), 7)
	}
	cur.Close()
	ref := ledgerOf(h)
	h, s = scanHeap(t, n)
	s.Fill(7)
	if l := ledgerOf(h); l != ref {
		t.Errorf("Fill %d cycles [%s]\nper-element loop %d cycles [%s]",
			l.cycles, l.counters.String(), ref.cycles, ref.counters.String())
	}
	for i := 0; i < n; i += 97 {
		if got := s.At(i); got != 7 {
			t.Fatalf("At(%d) = %d after Fill(7)", i, got)
		}
	}
}

// TestRangeCallbackSeesItsOwnStores: the callback may call back into the
// heap — the cursor holds a pin, not a lock — and a store it makes ahead of
// the iteration is what the iteration then reads.
func TestRangeCallbackSeesItsOwnStores(t *testing.T) {
	h := newTestHeap(t, 1<<20, 1<<13)
	s, _ := NewUint64s(h, 2000)
	s.Fill(1)
	var sum uint64
	s.Range(func(i int, v uint64) bool {
		sum += v
		if i+1 < s.Len() {
			s.Set(i+1, v+1) // same object or the next: both must be seen
		}
		return true
	})
	if want := uint64(2000 * 2001 / 2); sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestFloat64sFillAndRange(t *testing.T) {
	h := newTestHeap(t, 1<<20, 1<<13)
	s, _ := NewFloat64s(h, 3000)
	s.Fill(0.25)
	s.Set(1500, -1)
	var sum float64
	seen := 0
	s.Range(func(i int, v float64) bool { sum += v; seen++; return i < 2000 })
	if seen != 2001 || sum != 0.25*2000-1 {
		t.Fatalf("Range saw %d elements summing to %v", seen, sum)
	}
}

// TestRangeAllocs: a Range over a resident slice allocates its Cursor and
// nothing else, whatever the length.
func TestRangeAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	h := newTestHeap(t, 1<<22, 1<<22)
	for _, n := range []int{512, 1 << 17} {
		s, _ := NewUint64s(h, n)
		s.Fill(2)
		var sum uint64
		if a := testing.AllocsPerRun(20, func() {
			s.Range(func(_ int, v uint64) bool { sum += v; return true })
		}); a > 1 {
			t.Errorf("Range over %d resident elements allocated %v times, want at most 1", n, a)
		}
	}
}

// loopbackServer serves store on loopback as fmserver does, admission on.
func loopbackServer(t testing.TB, store *remote.Store) (*fabric.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveOn(store, ln), ln.Addr().String()
}

// serveOn serves store on ln as fmserver does, admission on.
func serveOn(store *remote.Store, ln net.Listener) *fabric.Server {
	srv := fabric.NewServer(store)
	srv.EnableAdmission(fabric.AdmissionConfig{})
	srv.Serve(ln)
	return srv
}

// heldListener lends one listening socket to one server at a time. Close
// ends that server's accept loop but leaves the socket listening, so a
// dial that comes while no server is on it waits in the accept backlog
// until handOver lends the socket to a successor, instead of being
// refused: a restart is a pause, however long the goroutine that restarts
// the server is descheduled in the middle of it.
type heldListener struct {
	*net.TCPListener
	done chan struct{} // closed when the server's accept loop has returned
}

func holdListener(t testing.TB) heldListener {
	t.Helper()
	ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return heldListener{ln, make(chan struct{})}
}

func (l heldListener) Accept() (net.Conn, error) {
	conn, err := l.TCPListener.Accept()
	if err != nil { // the server's accept loop returns on the first error
		close(l.done)
	}
	return conn, err
}

// Close fails the pending Accept and every later one; the socket stays.
func (l heldListener) Close() error { return l.SetDeadline(time.Unix(1, 0)) }

// handOver waits for the closed server's accept loop to end, then lends
// the socket to the next server.
func (l heldListener) handOver(t testing.TB) heldListener {
	<-l.done
	if err := l.SetDeadline(time.Time{}); err != nil {
		t.Errorf("reopening the held listener: %v", err)
	}
	return heldListener{l.TCPListener, make(chan struct{})}
}

// leasesOut reports the buffer leases outstanding beyond base, once a
// closed server's handlers have had a moment to release theirs: a release
// can trail the hang-up by a scheduler beat.
func leasesOut(base int) int {
	for deadline := time.Now().Add(2 * time.Second); bufpool.Outstanding() != base && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	return bufpool.Outstanding() - base
}

// TestWindowLifetimeRace: spans hand out local memory in place, so this is
// the proof that a window never outlives its pin. Four goroutines Fill and
// Range their own slices — which share boundary objects with their
// neighbours', twice over local memory in total — with scalar accesses in
// the callbacks, their demand misses evicting each other's objects, and a
// fifth goroutine squeezing the budget to half and back. Every sum must
// match, and at the end no pin and no buffer lease is left. Over a
// loopback server the prefetches of those passes are in flight while all
// of that goes on — any goroutine may end up finishing any of them — and
// in the restart rows the server is killed and replaced mid-run, failing
// whatever was in flight. The successor takes over the listening socket
// (heldListener), so the reconnects in between wait in its backlog: the
// rows test what a restart does to in-flight work, not whether a worker's
// retries outlast a restarting goroutine the scheduler has parked.
// The write-heavy rows add a phase of random scalar stores and loads to
// every round: demand misses that evict dirty objects, so that pushes ride
// ahead of fetches, a reload of an object just evicted is served from the
// write-behind window, and the restart fails exchanges that carry pushes.
// Run under -race.
func TestWindowLifetimeRace(t *testing.T) {
	for _, row := range []struct {
		name                                string
		loopback, restart, tier, writeHeavy bool
	}{
		{"simlink", false, false, false, false},
		{"loopback", true, false, false, false},
		{"loopback, server restarted", true, true, false, false},
		{"loopback, compressed tier", true, false, true, false}, // a prefetch probes the tier first and may never start
		{"loopback, write-heavy", true, false, false, true},
		{"loopback, write-heavy, server restarted", true, true, false, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			before := bufpool.Outstanding()
			cfg := Config{}
			if row.tier {
				cfg.CompressedBytes = 16 << 10
			}
			var midway func()
			if row.loopback {
				store := remote.NewStore()
				ln := holdListener(t)
				srv := serveOn(store, ln)
				defer func() {
					srv.Close()
					store.Clear()
					if n := leasesOut(before); n != 0 {
						t.Errorf("%d buffer leases outstanding after the server closed", n)
					}
				}()
				cfg.RemoteAddr = ln.Addr().String()
				if row.restart {
					midway = func() {
						ln.Close()  // stop accepting: dials from here on wait in the backlog
						srv.Close() // fails every exchange in flight on the old server
						ln = ln.handOver(t)
						srv = serveOn(store, ln) // the same store: nothing acked is lost
					}
				}
			}
			windowLifetimeRace(t, cfg, midway, row.writeHeavy)
			if !row.loopback {
				if n := bufpool.Outstanding() - before; n != 0 {
					t.Errorf("%d buffer leases outstanding after Close", n)
				}
			}
		})
	}
}

// windowLifetimeRace is TestWindowLifetimeRace's body over the far memory
// cfg names; midway, if set, runs once, on worker 0, halfway through.
// writeHeavy adds the scalar phase, checked against a shadow copy, and
// expects the write-behind window to have forwarded and carried.
func windowLifetimeRace(t *testing.T, cfg Config, midway func(), writeHeavy bool) {
	const workers, per, obj = 4, 5000, 256 // 40 000 B a slice: not whole objects
	local := uint64(workers * per * 8 / 2)
	cfg.HeapBytes, cfg.LocalBytes = 1<<20, local
	cfg.ObjectBytes = obj
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	slices := make([]*Uint64s, workers)
	for k := range slices {
		if slices[k], err = NewUint64s(h, per); err != nil {
			t.Fatal(err)
		}
	}
	rounds := 30
	if testing.Short() {
		rounds = 8
	} else if cfg.RemoteAddr != "" {
		rounds = 12 // a round over a socket is several times a round over SimLink
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for budget := local / 2; ; budget = local*3/2 - budget { // half, full, half, ...
			select {
			case <-stop:
				return
			default:
			}
			if err := h.Resize(budget); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var workersWG sync.WaitGroup
	for k := 0; k < workers; k++ {
		workersWG.Add(1)
		go func(k int) {
			defer workersWG.Done()
			s := slices[k]
			for r := 1; r <= rounds; r++ {
				if k == 0 && r == rounds/2 && midway != nil {
					midway()
				}
				v := uint64(k*1000 + r)
				s.Fill(v)
				s.Set(per/2, v+5) // scalar store between the chunked passes
				var sum uint64
				s.Range(func(i int, x uint64) bool {
					sum += x
					if i%1024 == 0 {
						sum += s.At(i) - x // scalar hit on the pinned object: adds 0
					}
					return true
				})
				if want := v*per + 5; sum != want {
					t.Errorf("worker %d round %d: Range sum %d, want %d", k, r, sum, want)
					return
				}
				if !writeHeavy {
					continue
				}
				shadow := make(map[int]uint64)
				rng := sim.NewRNG(v)
				for op := 0; op < 300; op++ {
					i := rng.Intn(per)
					if op%2 == 0 {
						shadow[i] = rng.Uint64()
						s.Set(i, shadow[i])
						continue
					}
					want, written := shadow[i]
					if !written {
						if want = v; i == per/2 {
							want = v + 5
						}
					}
					if got := s.At(i); got != want {
						t.Errorf("worker %d round %d: element %d = %d, want %d", k, r, i, got, want)
						return
					}
				}
			}
		}(k)
	}
	workersWG.Wait()
	close(stop)
	wg.Wait()
	if writeHeavy {
		// Whatever the schedule above did, one load here meets a parked
		// copy: two objects dirtied alone in two slots, a squeeze to one
		// that parks one of them in the write-behind window and sends no
		// exchange, then both read back. The first miss finds its object
		// parked.
		h.rt.EvacuateAll()
		s, last := slices[0], per-1
		if err := h.Resize(2 * obj); err != nil {
			t.Fatal(err)
		}
		s.Set(0, 1)
		s.Set(last, 2)
		if err := h.Resize(obj); err != nil {
			t.Fatal(err)
		}
		if a, b := s.At(0), s.At(last); a != 1 || b != 2 {
			t.Errorf("after the squeeze to one object: elements 0 and %d read %d and %d, want 1 and 2", last, a, b)
		}
		reg := obs.NewRegistry()
		h.rt.Pool().RegisterObs(reg)
		if snap := reg.Snapshot(); snap.Counters["trackfm_pool_write_behind_forwards_total"] == 0 {
			t.Errorf("no load was served from the write-behind window: the row exercised nothing")
		}
	}
	if n := h.rt.Pool().PinnedObjects(); n != 0 {
		t.Errorf("%d objects still pinned", n)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if n := h.rt.Pool().PendingPrefetches(); n != 0 {
		t.Errorf("%d prefetches still pending after Close", n)
	}
}

// TestRangeStoppedEarlyStrandsNothing: a Range over a far slice that stops
// at its first element has already started the prefetches of the objects
// behind it, and nobody will ask for them. They hold their slots only until
// the next squeeze, which lands them like any resident; nothing is lost to
// the pool and the slice still reads whole.
func TestRangeStoppedEarlyStrandsNothing(t *testing.T) {
	store := remote.NewStore()
	srv, addr := loopbackServer(t, store)
	defer srv.Close()
	const n, local = 16 << 10, 32 << 10 // 128 KiB of elements over 32 KiB of local memory
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: local, ObjectBytes: 1 << 10,
		RemoteConfig: fabric.RemoteConfig{RemoteAddr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	s, _ := NewUint64s(h, n)
	var want uint64
	for i := 0; i < n; i++ {
		s.Set(i, uint64(i)*7)
		want += uint64(i) * 7
	}
	h.rt.EvacuateAll()
	pool := h.rt.Pool()

	s.Range(func(int, uint64) bool { return false })
	if got := pool.PendingPrefetches(); got == 0 {
		t.Fatalf("a chunked pass over a far slice left no prefetch in flight; the test exercises nothing")
	}
	if err := h.Resize(local / 2); err != nil {
		t.Fatal(err)
	}
	if got := pool.PendingPrefetches(); got != 0 {
		t.Errorf("%d prefetches still pending after the squeeze", got)
	}
	if got, max := pool.ResidentSlots(), pool.NumSlots(); got > max {
		t.Errorf("%d slots resident under a budget of %d", got, max)
	}
	if err := h.Resize(local); err != nil {
		t.Fatal(err)
	}
	var sum uint64
	s.Range(func(_ int, v uint64) bool { sum += v; return true })
	if sum != want {
		t.Errorf("Range sum %d after the squeeze, want %d", sum, want)
	}
	if n := pool.PinnedObjects(); n != 0 {
		t.Errorf("%d objects still pinned", n)
	}
}

// TestRangeLoopbackAllocs: a Range pass over a far slice on loopback —
// every object fetched through the prefetch stream, client and server in
// this process — allocates its Cursor and nothing else, and leaks no wire
// lease.
func TestRangeLoopbackAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	store := remote.NewStore()
	srv, addr := loopbackServer(t, store)
	const n, local = 64 << 10, 128 << 10 // 512 KiB of elements over 128 KiB of local memory
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: local, ObjectBytes: 4096,
		RemoteConfig: fabric.RemoteConfig{RemoteAddr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	s, _ := NewUint64s(h, n)
	s.Fill(3)
	var sum uint64
	pass := func() { s.Range(func(_ int, v uint64) bool { sum += v; return true }) }
	pass() // warm: the stream's connection, the pool's free lists
	hits := h.Snapshot().Counters.PrefetchHits
	if a := testing.AllocsPerRun(10, pass); a > 1 {
		t.Errorf("a Range pass over %d far elements allocated %v times, want at most 1", n, a)
	}
	if got := h.Snapshot().Counters.PrefetchHits - hits; got < 11*(n*8/4096)/2 {
		t.Errorf("only %d prefetch hits in 11 passes: the passes did not ride the prefetch stream", got)
	}
	if sum != 12*3*n {
		t.Errorf("sum %d over 12 passes, want %d", sum, 12*3*n)
	}

	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	base := bufpool.Outstanding()
	pass()
	h.Close()
	srv.Close()
	if got := leasesOut(base); got != 0 {
		t.Errorf("%d wire leases outstanding after a pass and Close", got)
	}
}
