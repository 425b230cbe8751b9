package aifm

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/sim"
)

func newTestPool(t testing.TB, objSize int, heap, budget uint64, opts ...func(*Config)) (*Pool, *sim.Env, *fabric.SimLink) {
	t.Helper()
	env := sim.NewEnv()
	link := fabric.NewSimLink(env, fabric.BackendTCP)
	cfg := Config{
		Env:          env,
		RemoteConfig: fabric.RemoteConfig{Transport: link},
		ObjectSize:   objSize,
		HeapSize:     heap,
		LocalBudget:  budget,
	}
	for _, o := range opts {
		o(&cfg)
	}
	p, err := NewPool(cfg)
	if err != nil {
		t.Fatalf("NewPool: %v", err)
	}
	return p, env, link
}

// touch makes id resident for a test whose transport cannot fail: a pinned
// scope entered and left at once. It reports whether that paid a blocking
// remote fetch.
func touch(tb testing.TB, p *Pool, id ObjectID, write bool) (fetched bool) {
	tb.Helper()
	_, fetched = pin(tb, p, id, write)
	p.Unpin(id)
	return fetched
}

// access is Access for a test whose transport cannot fail.
func access(tb testing.TB, p *Pool, id ObjectID, off uint64, buf []byte, write bool) {
	tb.Helper()
	if err := p.Access(id, off, buf, write); err != nil {
		tb.Fatalf("Access(%d): %v", id, err)
	}
}

// pin is Pin for a test whose transport cannot fail. The caller must Unpin.
func pin(tb testing.TB, p *Pool, id ObjectID, write bool) (win []byte, fetched bool) {
	tb.Helper()
	win, fetched, err := p.Pin(id, write)
	if err != nil {
		tb.Fatalf("Pin(%d): %v", id, err)
	}
	return win, fetched
}

func TestNewPoolValidation(t *testing.T) {
	env := sim.NewEnv()
	link := fabric.NewSimLink(env, fabric.BackendTCP)
	rc := fabric.RemoteConfig{Transport: link}
	bad := []Config{
		{RemoteConfig: rc, ObjectSize: 64, HeapSize: 1 << 20, LocalBudget: 1 << 16},                // no env
		{Env: env, RemoteConfig: rc, ObjectSize: 48, HeapSize: 1 << 20, LocalBudget: 1 << 16},      // not power of two
		{Env: env, RemoteConfig: rc, ObjectSize: 32, HeapSize: 1 << 20, LocalBudget: 1 << 16},      // too small
		{Env: env, RemoteConfig: rc, ObjectSize: 1 << 17, HeapSize: 1 << 20, LocalBudget: 1 << 18}, // too large
		{Env: env, RemoteConfig: rc, ObjectSize: 64, LocalBudget: 1 << 16},                         // no heap
		{Env: env, RemoteConfig: rc, ObjectSize: 64, HeapSize: 1 << 20, LocalBudget: 32},           // budget < one object
		{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: link, RemoteAddr: "127.0.0.1:1"},
			ObjectSize: 64, HeapSize: 1 << 20, LocalBudget: 1 << 16}, // two remote sources
	}
	for i, cfg := range bad {
		if _, err := NewPool(cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}

func TestLocalizeMaterializesFirstTouchWithoutNetwork(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 1<<16, 1<<12)
	// First touch of a never-evacuated object is a local zero-fill,
	// not a remote fetch (freshly malloc'd memory).
	if touch(t, p, 3, true) {
		t.Fatalf("first touch performed a remote fetch")
	}
	if env.Counters.RemoteFetches != 0 || env.Counters.BytesFetched != 0 {
		t.Fatalf("first touch moved data: %s", env.Counters.String())
	}
	got := make([]byte, 4)
	access(t, p, 3, 8, got, false)
	if !bytes.Equal(got, []byte{0, 0, 0, 0}) {
		t.Fatalf("fresh object not zeroed: %v", got)
	}
}

func TestLocalizeFetchesEvacuatedObjectAndReadsBack(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 1<<16, 1<<12)
	access(t, p, 3, 8, []byte{0xAA, 0xBB}, true)
	p.EvacuateAll()

	if !touch(t, p, 3, false) {
		t.Fatalf("localizing an evacuated object did not fetch")
	}
	if env.Counters.RemoteFetches != 1 || env.Counters.CriticalFetches != 1 {
		t.Fatalf("fetch counters = %d/%d", env.Counters.RemoteFetches, env.Counters.CriticalFetches)
	}

	// Second localize: already present, no fetch, no extra cost.
	before := env.Clock.Cycles()
	if touch(t, p, 3, false) {
		t.Fatalf("localizing a resident object fetched")
	}
	got := make([]byte, 2)
	access(t, p, 3, 8, got, false)
	if env.Clock.Cycles() != before {
		t.Fatalf("resident accesses charged cycles")
	}
	if !bytes.Equal(got, []byte{0xAA, 0xBB}) {
		t.Fatalf("read %v", got)
	}
}

func TestEvictionWritesBackDirtyData(t *testing.T) {
	// Budget of exactly 2 slots; touching a 3rd object must evict.
	p, env, link := newTestPool(t, 64, 1<<16, 128)
	access(t, p, 0, 0, []byte{42}, true)
	touch(t, p, 1, false)
	if p.LocalBytes() != 128 {
		t.Fatalf("LocalBytes = %d", p.LocalBytes())
	}
	touch(t, p, 2, false) // evicts one of {0,1}
	if p.LocalBytes() != 128 {
		t.Fatalf("LocalBytes after eviction = %d", p.LocalBytes())
	}
	if env.Counters.Evacuations != 1 {
		t.Fatalf("Evacuations = %d", env.Counters.Evacuations)
	}
	// Object 0 was dirty: if it was the victim, its data must be on the
	// remote node and read back intact on re-localize.
	if !p.Meta(0).Present() {
		if link.RemoteKeys() != 1 {
			t.Fatalf("dirty victim not pushed to remote")
		}
		got := make([]byte, 1)
		access(t, p, 0, 0, got, false)
		if got[0] != 42 {
			t.Fatalf("dirty data lost across eviction: %v", got)
		}
	}
}

func TestCleanEvictionSkipsWriteback(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 1<<16, 64) // one slot
	touch(t, p, 0, false)                      // clean
	before := env.Counters.BytesEvicted
	touch(t, p, 1, false) // evicts 0
	if env.Counters.BytesEvicted != before {
		t.Fatalf("clean eviction pushed %d bytes", env.Counters.BytesEvicted-before)
	}
	if p.Meta(0).Present() {
		t.Fatalf("object 0 still present")
	}
	m := p.Meta(0)
	if m.RemoteID() != 0 || m.RemoteSize() != 64 {
		t.Fatalf("remote meta fields wrong: id=%d size=%d", m.RemoteID(), m.RemoteSize())
	}
}

func TestPinnedObjectsSurviveEviction(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 128) // two slots
	pin(t, p, 0, false)
	touch(t, p, 1, false)
	touch(t, p, 2, false) // must evict 1, not pinned 0
	if !p.Meta(0).Present() {
		t.Fatalf("pinned object was evicted")
	}
	if p.Meta(1).Present() {
		t.Fatalf("unpinned object survived while pinned object should be protected")
	}
	p.Unpin(0)
}

func TestAllPinnedUsesReserve(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 64) // one circulating slot
	pin(t, p, 0, false)
	// With every circulating slot pinned, demand localization borrows a
	// reserve-floor slot instead of stalling forever.
	touch(t, p, 1, false)
	if !p.Meta(1).Present() {
		t.Fatalf("localization with all circulating slots pinned did not complete")
	}
	if p.ReserveFree() >= p.ReserveFloor() {
		t.Fatalf("expected a borrowed reserve slot: free %d, floor %d",
			p.ReserveFree(), p.ReserveFloor())
	}
	// Freeing repays the floor before refilling the free stack.
	p.Free(1)
	if p.ReserveFree() != p.ReserveFloor() {
		t.Fatalf("reserve not repaid: free %d, floor %d", p.ReserveFree(), p.ReserveFloor())
	}
	p.Unpin(0)
}

func TestAllPinnedPanicsWithoutReserve(t *testing.T) {
	// Every circulating slot and the whole reserve pinned: nothing is left
	// to borrow, and the next demand miss must say so.
	p, _, _ := newTestPool(t, 64, 1<<16, 64)
	n := ObjectID(p.NumSlots() + p.ReserveFloor())
	for id := ObjectID(0); id < n; id++ {
		pin(t, p, id, false)
	}
	if p.ReserveFree() != 0 {
		t.Fatalf("%d reserve slots still free with %d objects pinned", p.ReserveFree(), n)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("a miss with every slot and the reserve pinned did not panic")
		}
	}()
	_ = p.Access(n, 0, nil, false) // panics before it can return
}

func TestUnpinUnpinnedPanics(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 64)
	defer func() {
		if recover() == nil {
			t.Fatalf("Unpin of unpinned object did not panic")
		}
	}()
	p.Unpin(7)
}

func TestHotnessSecondChance(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 128) // two slots
	touch(t, p, 0, false)                     // hot
	touch(t, p, 1, false)                     // hot
	// Make object 0 cold (as a completed clock sweep would); object 1
	// keeps its H bit. The next eviction must pick the cold object even
	// though the clock hand reaches the hot one first.
	p.storeMeta(0, p.Meta(0)&^MetaH)
	touch(t, p, 2, false)
	if !p.Meta(1).Present() {
		t.Fatalf("hot object evicted before cold object")
	}
	if p.Meta(0).Present() {
		t.Fatalf("cold object survived; nothing was evicted")
	}
}

func TestPrefetchHitAvoidsCriticalFetch(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 1<<16, 1<<12)
	touch(t, p, 5, true) // touch so the object has remote state after eviction
	p.EvacuateAll()
	env.Counters.Reset()
	p.Prefetch(5)
	if env.Counters.PrefetchIssued != 1 {
		t.Fatalf("PrefetchIssued = %d", env.Counters.PrefetchIssued)
	}
	if !p.Meta(5).Prefetched() {
		t.Fatalf("prefetched object lacks PF bit")
	}
	critBefore := env.Counters.CriticalFetches
	if touch(t, p, 5, false) {
		t.Fatalf("localizing after a prefetch performed a blocking fetch")
	}
	if env.Counters.CriticalFetches != critBefore {
		t.Fatalf("prefetch hit still counted as critical fetch")
	}
	if env.Counters.PrefetchHits != 1 {
		t.Fatalf("PrefetchHits = %d", env.Counters.PrefetchHits)
	}
	if p.Meta(5).Prefetched() {
		t.Fatalf("PF bit not cleared on demand access")
	}
}

func TestPrefetchCheaperThanDemandFetch(t *testing.T) {
	p, env, _ := newTestPool(t, 4096, 1<<20, 1<<16)
	touch(t, p, 1, true)
	touch(t, p, 2, true)
	p.EvacuateAll()
	env.Clock.Reset()
	p.Prefetch(1)
	prefetchCost := env.Clock.Cycles()
	env.Clock.Reset()
	touch(t, p, 2, false)
	demandCost := env.Clock.Cycles()
	if prefetchCost*3 > demandCost {
		t.Fatalf("prefetch (%d cycles) should be far cheaper than demand fetch (%d)", prefetchCost, demandCost)
	}
}

func TestAutoStridePrefetcher(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 1<<16, 1<<12, func(c *Config) {
		c.AutoPrefetch = true
		c.PrefetchDepth = 4
	})
	// Touch a range so it has remote state, evacuate, then three
	// sequential demand misses arm the stride detector.
	for id := ObjectID(10); id < 20; id++ {
		touch(t, p, id, true)
	}
	p.EvacuateAll()
	env.Counters.Reset()
	touch(t, p, 10, false)
	touch(t, p, 11, false)
	touch(t, p, 12, false)
	if env.Counters.PrefetchIssued == 0 {
		t.Fatalf("stride prefetcher never fired")
	}
	// The next objects in the stream should now be resident.
	if !p.Meta(13).Present() {
		t.Fatalf("object 13 not prefetched")
	}
	crit := env.Counters.CriticalFetches
	touch(t, p, 13, false)
	if env.Counters.CriticalFetches != crit {
		t.Fatalf("prefetched object caused a critical fetch")
	}
}

func TestStrideDetectorResetsOnRandomAccess(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 1<<16, 1<<12, func(c *Config) {
		c.AutoPrefetch = true
	})
	for _, id := range []ObjectID{10, 50, 90} {
		touch(t, p, id, true)
	}
	p.EvacuateAll()
	env.Counters.Reset()
	touch(t, p, 10, false)
	touch(t, p, 50, false)
	touch(t, p, 90, false)
	if env.Counters.PrefetchIssued != 0 {
		t.Fatalf("random misses triggered %d prefetches", env.Counters.PrefetchIssued)
	}
}

func TestFreeReleasesSlotAndRemote(t *testing.T) {
	p, _, link := newTestPool(t, 64, 1<<16, 64)
	access(t, p, 0, 0, []byte{1}, true)
	touch(t, p, 1, false) // evict 0 (dirty -> pushed)
	if link.RemoteKeys() != 1 {
		t.Fatalf("remote keys = %d", link.RemoteKeys())
	}
	p.Free(0)
	if link.RemoteKeys() != 0 {
		t.Fatalf("Free left remote copy")
	}
	p.Free(1)
	if p.LocalBytes() != 0 {
		t.Fatalf("Free left local copy")
	}
	if p.Meta(1) != 0 {
		t.Fatalf("Free left metadata %v", p.Meta(1))
	}
}

func TestFreePinnedPanics(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 64)
	pin(t, p, 0, false)
	defer func() {
		if recover() == nil {
			t.Fatalf("Free of pinned object did not panic")
		}
	}()
	p.Free(0)
}

func TestEvacuateAll(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 1<<12)
	for id := ObjectID(0); id < 8; id++ {
		touch(t, p, id, true)
	}
	pin(t, p, 3, false)
	p.EvacuateAll()
	for id := ObjectID(0); id < 8; id++ {
		if id == 3 {
			if !p.Meta(id).Present() {
				t.Fatalf("pinned object evacuated by EvacuateAll")
			}
			continue
		}
		if p.Meta(id).Present() {
			t.Fatalf("object %d still present after EvacuateAll", id)
		}
	}
	p.Unpin(3)
}

func TestTableIsSharedStorage(t *testing.T) {
	p, _, _ := newTestPool(t, 64, 1<<16, 1<<12)
	tbl := p.Table()
	touch(t, p, 9, false)
	if !tbl[9].Present() {
		t.Fatalf("external table view not coherent with pool state")
	}
}

// TestLocalizePanicsOnUnrecoverableFetch: Localize, which has no error to
// return, panics on a fetch the far engine gives up on. The link's outage
// opens at the first op past the setup's, as a probe run counts them, and
// outlasts every attempt.
func TestLocalizePanicsOnUnrecoverableFetch(t *testing.T) {
	// setup evacuates object 1 from a two-slot pool over a FaultLink.
	setup := func(faults fabric.FaultConfig) (*Pool, *fabric.FaultLink) {
		env := sim.NewEnv()
		link := fabric.NewFaultLink(fabric.NewSimLink(env, fabric.BackendTCP), faults)
		p, _, _ := newTestPool(t, 64, 64*16, 64*2, func(c *Config) { c.Env, c.Transport, c.RemoteRetries = env, link, 2 })
		access(t, p, 1, 0, []byte{9}, true)
		p.EvacuateAll()
		return p, link
	}
	_, probe := setup(fabric.FaultConfig{})
	p, _ := setup(fabric.FaultConfig{OutageEvery: int(probe.Stats().Ops) + 1, OutageLen: 1 << 30})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "unrecoverable remote fetch") {
			t.Fatalf("Localize over a dead link: panic %v, want an unrecoverable remote fetch", r)
		}
	}()
	p.Localize(1, false)
}
