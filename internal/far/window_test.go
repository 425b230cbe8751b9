package far

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// carryLink is a scripted far node that can carry pushes: exchanges fail on
// command (having stored only the first few of their pushes, as a refusal
// in the middle of a batch leaves things), or stop inside the "wire" until
// released. A failure with ErrRemoteUnavailable is a cut, which fails a
// fetch with the pushes ahead of it; any other is a refusal of those
// pushes, and the fetch behind them is served. It checks what only the server end can see: that two pushes of
// one key are never on the wire at once, and that a key's versions (the
// first 8 bytes of a payload, where a test puts them) only ever go up.
type carryLink struct {
	mu        sync.Mutex
	store     map[uint64][]byte
	onWire    map[uint64]bool
	exchanges [][]uint64 // keys pushed by each exchange, in order, whether or not it then failed
	fetches   int
	fail      int   // fail this many exchanges, then succeed
	err       error // with this
	partial   int   // a failing exchange stores its first partial pushes
	bad       []string

	gate    chan struct{} // when set, an exchange carrying pushes waits here
	entered chan struct{} // and says so here first
}

func newCarryLink() *carryLink {
	return &carryLink{store: map[uint64][]byte{}, onWire: map[uint64]bool{}, err: fabric.ErrRemoteUnavailable}
}

func (l *carryLink) exchange(pushes []fabric.Push, fetch bool, key uint64, dst []byte) (bool, error, error) {
	l.mu.Lock()
	keys := make([]uint64, len(pushes))
	for i, p := range pushes {
		keys[i] = p.Key
		if l.onWire[p.Key] {
			l.bad = append(l.bad, fmt.Sprintf("two pushes of key %d on the wire at once", p.Key))
		}
		l.onWire[p.Key] = true
	}
	l.exchanges = append(l.exchanges, keys)
	gate := l.gate
	l.mu.Unlock()
	if gate != nil && len(pushes) > 0 {
		select {
		case l.entered <- struct{}{}:
			<-gate
		case <-time.After(2 * time.Second):
			l.mu.Lock()
			l.bad = append(l.bad, fmt.Sprintf("an exchange carrying %v reached the gate with nobody expecting one", keys))
			l.mu.Unlock()
		}
	}
	for i := 0; i < 8; i++ { // time on the wire, for other exchanges to overlap with
		runtime.Gosched()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	stored := len(pushes)
	var err error
	if l.fail > 0 {
		l.fail--
		stored, err = min(l.partial, stored), l.err
	}
	for _, p := range pushes[:stored] {
		if old, ok := l.store[p.Key]; ok && len(old) >= 8 && binary.BigEndian.Uint64(old) > binary.BigEndian.Uint64(p.Src) {
			l.bad = append(l.bad, fmt.Sprintf("key %d went back from version %d to %d",
				p.Key, binary.BigEndian.Uint64(old), binary.BigEndian.Uint64(p.Src)))
		}
		l.store[p.Key] = slices.Clone(p.Src)
	}
	for _, p := range pushes {
		delete(l.onWire, p.Key)
	}
	pushed := err
	if fetch && len(pushes) > 0 && !errors.Is(err, fabric.ErrRemoteUnavailable) {
		err = nil
	}
	if err != nil || !fetch {
		return false, pushed, err
	}
	l.fetches++
	blob, ok := l.store[key]
	clear(dst)
	copy(dst, blob)
	return ok, pushed, nil
}

// open lets the exchanges waiting at the gate through; later ones pass freely.
func (l *carryLink) open() {
	l.mu.Lock()
	gate := l.gate
	l.gate = nil
	l.mu.Unlock()
	close(gate)
}

func (l *carryLink) TryFetchAfterPushes(pushes []fabric.Push, key uint64, dst []byte, _ fabric.Deadline) (bool, error, error) {
	return l.exchange(pushes, true, key, dst)
}

func (l *carryLink) TryPushAll(pushes []fabric.Push, _ fabric.Deadline) error {
	_, _, err := l.exchange(pushes, false, 0, nil)
	return err
}

func (l *carryLink) TryFetchUntil(key uint64, dst []byte, _ fabric.Deadline) (bool, error) {
	found, _, err := l.exchange(nil, true, key, dst)
	return found, err
}

func (l *carryLink) TryPushUntil(key uint64, src []byte, _ fabric.Deadline) error {
	_, _, err := l.exchange([]fabric.Push{{Key: key, Src: src}}, false, 0, nil)
	return err
}

func (l *carryLink) TryDeleteUntil(key uint64, _ fabric.Deadline) error {
	l.mu.Lock()
	delete(l.store, key)
	l.mu.Unlock()
	return nil
}

var (
	_ fabric.ErrorTransport = (*carryLink)(nil)
	_ fabric.PushCarrier    = (*carryLink)(nil)
)

// versioned is one unit of data: its key's version, then a fill that says
// whose it is.
func versioned(key, ver uint64) []byte {
	buf := bytes.Repeat([]byte{byte(key), byte(ver)}, unit/2)
	binary.BigEndian.PutUint64(buf, ver)
	return buf
}

// wrig is an engine over a carryLink.
type wrig struct {
	*testing.T
	e *Engine
	l *carryLink
	c *sim.Counters
}

func newWrig(t *testing.T, cfg func(*Config)) *wrig {
	env := sim.NewEnv()
	l := newCarryLink()
	c := Config{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: l, RemoteRetries: retries},
		Backend: fabric.BackendTCP, UnitSize: unit}
	if cfg != nil {
		cfg(&c)
	}
	e, err := New(c)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		e.Close()
		for _, b := range l.bad {
			t.Error(b)
		}
	})
	return &wrig{T: t, e: e, l: l, c: &env.Counters}
}

func (r *wrig) evict(key, ver uint64) {
	r.Helper()
	if !r.e.Evict(key, versioned(key, ver), true) {
		r.Fatalf("Evict(%d v%d) refused", key, ver)
	}
}

// fetched fetches key and checks that the bytes are version ver's.
func (r *wrig) fetched(key, ver uint64) (local bool) {
	r.Helper()
	dst := make([]byte, unit)
	local, err := r.e.Fetch(key, dst)
	if err != nil {
		r.Fatalf("Fetch(%d): %v", key, err)
	}
	if !bytes.Equal(dst, versioned(key, ver)) {
		r.Fatalf("Fetch(%d) = version %d's bytes, want version %d's", key, binary.BigEndian.Uint64(dst), ver)
	}
	return local
}

// miss fetches a key nobody ever evicted: a trip to the server, which
// answers zeros.
func (r *wrig) miss(key uint64) {
	r.Helper()
	dst := versioned(key, 1)
	if local, err := r.e.Fetch(key, dst); err != nil || local || !bytes.Equal(dst, make([]byte, unit)) {
		r.Fatalf("Fetch(%d) of a key never evicted = local %v, %v", key, local, err)
	}
}

// far reports the version of key on the fake server, 0 when absent.
func (r *wrig) far(key uint64) uint64 {
	r.l.mu.Lock()
	defer r.l.mu.Unlock()
	if blob, ok := r.l.store[key]; ok {
		return binary.BigEndian.Uint64(blob)
	}
	return 0
}

func (r *wrig) want(name string, got, want uint64) {
	r.Helper()
	if got != want {
		r.Fatalf("%s = %d, want %d", name, got, want)
	}
}

func (r *wrig) depth() uint64 { return uint64(r.e.wb.parked()) }

// TestWindow is the write-behind window's rule book, one row a rule, over
// a scripted carrier.
func TestWindow(t *testing.T) {
	t.Run("a dirty miss is one exchange: the push rides ahead of the fetch", func(t *testing.T) {
		r := newWrig(t, nil)
		r.evict(1, 1)
		r.want("exchanges after Evict", uint64(len(r.l.exchanges)), 0)
		r.want("parked", r.depth(), 1)
		r.evict(2, 1)
		r.miss(9)
		if len(r.l.exchanges) != 1 || !slices.Equal(r.l.exchanges[0], []uint64{1, 2}) {
			t.Fatalf("exchanges = %v, want one carrying keys 1 and 2", r.l.exchanges)
		}
		r.want("parked after the acks", r.depth(), 0)
		r.want("key 1 on the server", r.far(1), 1)
		if r.fetched(1, 1) {
			t.Fatalf("a fetch of an acknowledged key reported local")
		}
		r.want("forwards", r.e.wb.forwarded(), 0)
	})

	t.Run("a parked key is fetched from the window, speculatively too, degraded too", func(t *testing.T) {
		r := newWrig(t, nil)
		reg := obs.NewRegistry()
		r.e.RegisterObs(reg)
		r.evict(1, 1)
		r.e.ForceDegrade(true)
		if !r.fetched(1, 1) {
			t.Fatalf("Fetch of a parked key went to the fabric")
		}
		r.e.ForceDegrade(false)
		dst := make([]byte, unit)
		pf, err := r.e.StartPrefetch(1, dst)
		if err != nil || pf.Pending() {
			t.Fatalf("StartPrefetch of a parked key = pending %v, %v; want done", pf.Pending(), err)
		}
		if local, err := r.e.FinishPrefetch(pf); err != nil || !local || !bytes.Equal(dst, versioned(1, 1)) {
			t.Fatalf("FinishPrefetch = local %v, %v", local, err)
		}
		r.want("exchanges", uint64(len(r.l.exchanges)), 0)
		snap := reg.Snapshot()
		if snap.Gauges["trackfm_pool_write_behind_parked"] != 1 || snap.Counters["trackfm_pool_write_behind_forwards_total"] != 2 {
			t.Fatalf("parked gauge = %v, forwards counter = %v; want 1, 2",
				snap.Gauges["trackfm_pool_write_behind_parked"], snap.Counters["trackfm_pool_write_behind_forwards_total"])
		}
	})

	t.Run("a failed exchange is one fetch fault and a push fault per carried entry, and loses nothing", func(t *testing.T) {
		r := newWrig(t, nil)
		r.evict(1, 1)
		r.evict(2, 1)
		r.l.fail = forever
		if _, err := r.e.Fetch(9, make([]byte, unit)); !errors.Is(err, fabric.ErrRemoteUnavailable) {
			t.Fatalf("Fetch over a dead link = %v", err)
		}
		r.want("RemoteFetchFaults", r.c.RemoteFetchFaults, retries)
		r.want("RemotePushFaults", r.c.RemotePushFaults, 2*retries)
		r.want("parked", r.depth(), 2)
		for _, keys := range r.l.exchanges {
			if !slices.Equal(keys, []uint64{1, 2}) {
				t.Fatalf("a retry carried %v, want both entries again", keys)
			}
		}
		r.fetched(1, 1)
		r.l.fail = 0
		r.miss(9)
		r.want("parked after heal", r.depth(), 0)
		r.want("key 2 on the server", r.far(2), 1)
		r.want("RemotePushFaults after heal", r.c.RemotePushFaults, 2*retries)
	})

	t.Run("a refused carried push fails the pushes alone: the fetch is served, the entries stay parked", func(t *testing.T) {
		r := newWrig(t, nil)
		r.evict(1, 1)
		r.evict(2, 1)
		r.l.fail, r.l.err = forever, fmt.Errorf("%w: server rejected push", fabric.ErrProtocol)
		for range 3 {
			r.miss(9)
		}
		r.want("RemoteFetchFaults", r.c.RemoteFetchFaults, 0)
		r.want("RemotePushFaults", r.c.RemotePushFaults, 3*2)
		r.want("parked", r.depth(), 2)
		if !r.fetched(1, 1) {
			t.Fatalf("Fetch of a refused entry's key went to the fabric")
		}
		r.l.fail = 0
		r.miss(9)
		r.want("parked once the node takes writes", r.depth(), 0)
		r.want("key 2 on the server", r.far(2), 1)
	})

	t.Run("a shed in the middle of a batch: the whole batch is sent again", func(t *testing.T) {
		r := newWrig(t, func(c *Config) { c.OpDeadline = 1 << 40 })
		for k := uint64(1); k <= 4; k++ {
			r.evict(k, 1)
		}
		r.l.fail, r.l.partial, r.l.err = 1, 2, fabric.ErrOverloaded
		r.miss(9) // the fetch behind the batch is served
		r.want("RemoteFetchFaults", r.c.RemoteFetchFaults, 0)
		r.want("OverloadRejects", r.c.OverloadRejects, 1) // one exchange shed, not four pushes
		r.want("RemotePushFaults", r.c.RemotePushFaults, 4)
		r.want("parked", r.depth(), 4)
		if err := r.e.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		if len(r.l.exchanges) != 2 || !slices.Equal(r.l.exchanges[1], []uint64{1, 2, 3, 4}) {
			t.Fatalf("exchanges = %v, want the four entries twice", r.l.exchanges)
		}
		r.want("parked", r.depth(), 0)
		r.want("key 4 on the server", r.far(4), 1)
	})

	t.Run("a key parked twice, nothing in flight: overwritten in place, pushed once", func(t *testing.T) {
		r := newWrig(t, nil)
		r.evict(1, 1)
		r.evict(1, 2)
		r.want("parked", r.depth(), 1)
		r.fetched(1, 2)
		if err := r.e.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		r.want("exchanges", uint64(len(r.l.exchanges)), 1)
		r.want("key 1 on the server", r.far(1), 2)
	})

	t.Run("a key parked behind its own push in flight: waits, forwards the newer copy", func(t *testing.T) {
		r := newWrig(t, nil)
		r.l.gate, r.l.entered = make(chan struct{}), make(chan struct{})
		r.evict(1, 1)
		r.evict(2, 1)
		flushed := make(chan error, 1)
		go func() { flushed <- r.e.Flush() }()
		<-r.l.entered // keys 1 and 2, version 1, are on the wire
		r.evict(1, 2)
		r.want("parked", r.depth(), 3)
		if !r.fetched(1, 2) {
			t.Fatalf("Fetch of key 1 went to the fabric with two copies parked")
		}
		if !r.fetched(2, 1) {
			t.Fatalf("Fetch of key 2, in flight, went to the fabric")
		}
		// A fetch that goes to the wire now has nothing it may carry.
		r.miss(9)
		if got := r.l.exchanges[len(r.l.exchanges)-1]; len(got) != 0 {
			t.Fatalf("a fetch carried %v while key 1's older push was in flight", got)
		}
		r.l.open()
		if err := <-flushed; err != nil {
			t.Fatalf("Flush: %v", err)
		}
		// The flush went on to the copy its first exchange had uncovered.
		r.want("parked", r.depth(), 0)
		r.want("key 1 on the server", r.far(1), 2)
		if got := r.l.exchanges[len(r.l.exchanges)-1]; !slices.Equal(got, []uint64{1}) {
			t.Fatalf("last exchange carried %v, want key 1's newer copy alone", got)
		}
	})

	t.Run("a failed exchange's entry is superseded by a copy parked meanwhile", func(t *testing.T) {
		r := newWrig(t, nil)
		r.l.gate, r.l.entered = make(chan struct{}), make(chan struct{})
		r.l.fail = forever
		r.evict(1, 1)
		flushed := make(chan error, 1)
		go func() { flushed <- r.e.Flush() }()
		<-r.l.entered
		r.evict(1, 2)
		r.l.open()
		if err := <-flushed; !errors.Is(err, fabric.ErrRemoteUnavailable) {
			t.Fatalf("Flush over a dead link = %v", err)
		}
		r.want("parked", r.depth(), 1) // version 1 did not come back beside version 2
		r.fetched(1, 2)
		r.l.fail = 0
		if err := r.e.Flush(); err != nil {
			t.Fatalf("Flush after heal: %v", err)
		}
		r.want("key 1 on the server", r.far(1), 2)
	})

	t.Run("a full window flushes itself; full and stuck, Evict refuses and nothing is dropped", func(t *testing.T) {
		r := newWrig(t, nil)
		for k := uint64(1); k <= wbWindow; k++ {
			r.evict(k, 1)
		}
		r.want("exchanges while there was room", uint64(len(r.l.exchanges)), 0)
		r.evict(20, 1) // no fetch came by: one exchange of wbWindow pushes makes room
		if len(r.l.exchanges) != 1 || len(r.l.exchanges[0]) != wbWindow {
			t.Fatalf("exchanges = %v, want one of %d pushes", r.l.exchanges, wbWindow)
		}
		r.want("parked", r.depth(), 1)

		r.l.fail = forever
		for k := uint64(21); k < 20+wbWindow; k++ {
			r.evict(k, 1) // an outage costs nothing while there is room
		}
		r.want("RemotePushFaults", r.c.RemotePushFaults, 0)
		if r.e.Evict(40, versioned(40, 1), true) {
			t.Fatalf("Evict into a full window over a dead link reported success")
		}
		r.want("EvictionStalls", r.c.EvictionStalls, 1)
		r.want("RemotePushFaults", r.c.RemotePushFaults, retries*wbWindow)
		r.want("parked", r.depth(), wbWindow)
		if !r.e.Evict(40, versioned(40, 1), false) {
			t.Fatalf("clean Evict refused beside a full window")
		}
		for k := uint64(20); k < 20+wbWindow; k++ {
			r.fetched(k, 1)
		}
		r.l.fail = 0
		r.evict(40, 1)
		if err := r.e.Flush(); err != nil {
			t.Fatalf("Flush after heal: %v", err)
		}
		for k := uint64(20); k < 20+wbWindow; k++ {
			r.want(fmt.Sprintf("key %d on the server", k), r.far(k), 1)
		}
		r.want("key 40 on the server", r.far(40), 1)
	})

	t.Run("a degraded engine parks nothing", func(t *testing.T) {
		r := newWrig(t, nil)
		r.e.ForceDegrade(true)
		if r.e.Evict(1, versioned(1, 1), true) {
			t.Fatalf("dirty Evict while degraded reported success")
		}
		r.want("EvictionStalls", r.c.EvictionStalls, 1)
		r.want("parked", r.depth(), 0)
	})

	t.Run("Delete drops the unsent copy", func(t *testing.T) {
		r := newWrig(t, nil)
		r.evict(1, 1)
		r.evict(2, 1)
		if !r.e.Delete(1) {
			t.Fatalf("Delete of a key with nothing in flight reported unacknowledged")
		}
		r.want("parked", r.depth(), 1)
		r.miss(9)
		if !slices.Equal(r.l.exchanges[0], []uint64{2}) {
			t.Fatalf("exchange carried %v, want key 2 alone: key 1 was freed", r.l.exchanges[0])
		}
		r.want("key 1 on the server", r.far(1), 0)
	})

	t.Run("Delete behind its key's push in flight reports itself lost: the push may land after it", func(t *testing.T) {
		r := newWrig(t, nil)
		r.l.gate, r.l.entered = make(chan struct{}), make(chan struct{})
		r.evict(1, 1)
		flushed := make(chan error, 1)
		go func() { flushed <- r.e.Flush() }()
		<-r.l.entered // key 1 is on the wire
		if r.e.Delete(1) {
			t.Fatalf("Delete acknowledged while a push of its key was in flight")
		}
		r.l.open()
		if err := <-flushed; err != nil {
			t.Fatalf("Flush: %v", err)
		}
		r.want("key 1 on the server", r.far(1), 1)
	})

	t.Run("Close drains, and every lease comes home", func(t *testing.T) {
		bufpool.SetDebug(true)
		defer bufpool.SetDebug(false)
		start := bufpool.Outstanding()
		r := newWrig(t, func(c *Config) { c.CompressedBudget = 1 << 16 })
		src := versioned(1, 1)
		r.e.Evict(1, src, true)
		r.e.Evict(2, src, true)
		if local, err := r.e.Fetch(1, src); err != nil || !local {
			t.Fatalf("Fetch = local %v, %v", local, err)
		}
		r.e.Tier().Clear()
		if local, err := r.e.Fetch(1, src); err != nil || !local { // the window's copy now
			t.Fatalf("Fetch past the tier = local %v, %v", local, err)
		}
		r.l.fail = 1
		if _, err := r.e.Fetch(9, src); err != nil {
			t.Fatalf("Fetch: %v", err)
		}
		r.e.Evict(3, src, true)
		if got := bufpool.Outstanding() - start; got < 1 {
			t.Fatalf("%d leases out with a unit parked, want at least its own", got)
		}
		r.e.Close()
		if _, ok := r.l.store[3]; !ok {
			t.Fatalf("Close left key 3 parked")
		}
		if got := bufpool.Outstanding() - start; got != 0 {
			t.Fatalf("%d buffer leases still out after Close", got)
		}
	})
}

// TestWindowConcurrentOwners: goroutines evict and fetch a small shared set
// of keys — each access under its key's lock, as a stripe lock or the
// mmap_lock would have it — so that every exchange carries the others'
// parked copies and a key is often parked again while its older copy is on
// the wire. Every fetch, forwarded or from the server, must return the
// version its key's owner last evicted; the server must see each key's
// versions in order and never two of its pushes at once (carryLink checks).
func TestWindowConcurrentOwners(t *testing.T) {
	const keys, workers = 3 * wbWindow, 4 // more keys than entries: most fetches go to the wire
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	r := newWrig(t, nil)
	var owner [keys]struct {
		sync.Mutex
		ver uint64
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 1)
			dst := make([]byte, unit)
			for i := 0; i < rounds; i++ {
				k := rng.Uint64() % keys
				o := &owner[k]
				o.Lock()
				if rng.Uint64()%2 == 0 {
					o.ver++
					if !r.e.Evict(k, versioned(k, o.ver), true) {
						// Every entry was on the wire in other workers'
						// exchanges: the unit stays "resident", as it was.
						o.ver--
					}
				} else if o.ver > 0 {
					if _, err := r.e.Fetch(k, dst); err != nil {
						t.Errorf("Fetch(%d): %v", k, err)
					} else if !bytes.Equal(dst, versioned(k, o.ver)) {
						t.Errorf("Fetch(%d) = version %d, want %d", k, binary.BigEndian.Uint64(dst), o.ver)
					}
				}
				o.Unlock()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers still running after 30s")
	}
	if err := r.e.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	for k := range owner {
		r.want(fmt.Sprintf("key %d on the server", k), r.far(uint64(k)), owner[k].ver)
	}
	if r.e.wb.forwarded() == 0 {
		t.Errorf("no fetch was ever forwarded: the test exercised nothing")
	}
}
