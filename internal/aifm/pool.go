package aifm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/far"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// Config parameterizes a Pool.
type Config struct {
	// Env supplies the clock, counters and cost model. Required.
	Env *sim.Env
	// RemoteConfig locates the pool's far memory: an explicit Transport or a
	// RemoteAddr to dial. Leaving it zero selects an in-process SimLink over
	// the TCP cost model (AIFM's backend). With a positive OpDeadline, eight
	// consecutive deadline-missing remote operations flip the pool into
	// degraded mode: remote fetches fail fast with far.ErrDegraded and dirty
	// evictions stall (except a 1-in-16 probe trickle), and prefetching pauses;
	// the first successful remote operation restores normal service.
	fabric.RemoteConfig
	// ObjectSize is the fixed object (chunk) size in bytes. Must be a
	// power of two in [64, fabric.MaxPayload], the largest transfer the
	// wire protocol carries (64 KiB). The paper argues only powers of two
	// from the cache-line size (64B) to the base page size (4KB) are
	// sensible (§3.2).
	ObjectSize int
	// HeapSize is the maximum far-memory heap in bytes; it determines the
	// object-count capacity (HeapSize / ObjectSize metadata entries, 8B
	// each — the paper's single-level-page-table-like overhead analysis).
	HeapSize uint64
	// LocalBudget is the local memory available for object data, in
	// bytes. The number of local slots is LocalBudget / ObjectSize.
	LocalBudget uint64
	// AutoPrefetch enables the runtime stride prefetcher: sequential
	// demand misses trigger asynchronous fetches of the next
	// PrefetchDepth objects (AIFM's stride prefetcher, §4.3).
	AutoPrefetch bool
	// PrefetchDepth is how many objects ahead to prefetch (default 8).
	PrefetchDepth int
	// ProtectPrefetch makes demand eviction's first clock pass skip
	// prefetched-but-unconsumed residents, so a fetch already paid for
	// is not thrown away before its use arrives. Sensible with ample
	// memory; under pressure it ranks speculation above the working set
	// (the inversion the anti-thrash governor's throttle exists to
	// break), so it is off by default.
	ProtectPrefetch bool
	// CompressedBudget enables the compressed-RAM middle tier: evictions
	// park an LZ-compressed copy locally (in addition to the fabric
	// push — the tier is write-through, so remote state is identical
	// with or without it) and demand localization probes the tier before
	// paying a fabric round trip. The value is the tier's compressed-byte
	// budget; zero disables the tier entirely. The tier evicts with one
	// CLOCK ring (see ctier.Tier).
	CompressedBudget uint64
}

// stripe is one lock shard of the pool. All mutation of an object's
// metadata word, pin count, and fetch in-flight state happens under its
// stripe's lock, and so does every eviction and every Free. The guard's
// safety check reads the metadata word with a single atomic load; a read
// of a resident, hot object (Access) then copies with no lock and
// validates against the lock's sequence (seqMutex) afterwards.
type stripe struct {
	mu       seqMutex
	pins     map[ObjectID]uint32
	inflight map[ObjectID]struct{}

	// done is the singleflight rendezvous, sharing mu: a fetch leader
	// broadcasts after publishing (or abandoning) any object in the
	// stripe, and waiters re-check their object's state. A condition
	// variable instead of a per-fetch channel keeps the miss path free of
	// per-operation allocations; the cost is stripe-wide wakeups, which
	// 64-way striping already makes rare.
	done sync.Cond

	ghosts // the thrash detector's eviction history
}

// seqMutex is a stripe's lock, whose word is also a sequence number: seq
// is odd while the lock is held and each critical section adds 2 to it. A
// reader that saw the same even seq before and after a copy knows no
// critical section ran in between — no store, eviction or Free touched the
// stripe — so it may copy without taking the lock (see Pool.Access).
// Writers pay what a sync.Mutex costs them, one CAS and one add; a Lock
// that finds the lock held sleeps on cond, and Unlock wakes the sleepers
// only when there are any.
type seqMutex struct {
	seq     atomic.Uint64
	waiters atomic.Int32
	mu      sync.Mutex // guards cond's sleepers
	cond    sync.Cond
}

// TryLock takes the lock if it is free.
func (l *seqMutex) TryLock() bool {
	s := l.seq.Load()
	return s&1 == 0 && l.seq.CompareAndSwap(s, s+1)
}

// Lock takes the lock, sleeping until it is free. A sleeper is counted in
// waiters before its last TryLock, so an Unlock either lets that TryLock
// succeed or sees the count and wakes it: no wake-up is lost.
func (l *seqMutex) Lock() {
	if l.TryLock() {
		return
	}
	l.mu.Lock()
	if l.cond.L == nil {
		l.cond.L = &l.mu
	}
	l.waiters.Add(1)
	for !l.TryLock() {
		l.cond.Wait()
	}
	l.waiters.Add(-1)
	l.mu.Unlock()
}

// Unlock releases the lock, ending the critical section's sequence. Like
// the sync.Mutex it replaces it must pair with a Lock or TryLock; an
// unpaired Unlock is not caught here — the one check it could afford
// would stop Unlock inlining — and leaves the word odd, so the next Lock
// sleeps for good.
func (l *seqMutex) Unlock() {
	l.seq.Add(1)
	if l.waiters.Load() != 0 {
		l.wake()
	}
}

// wake is Unlock's rare half, kept out of line so Unlock inlines.
func (l *seqMutex) wake() {
	l.mu.Lock()
	l.cond.Broadcast()
	l.mu.Unlock()
}

// readBegin returns the sequence a lock-free read validates against, and
// false while a critical section is running.
func (l *seqMutex) readBegin() (uint64, bool) {
	s := l.seq.Load()
	return s, s&1 == 0
}

// readValid reports whether no critical section began since readBegin
// returned s. The load must not be satisfied before the reader's copy: on
// amd64 (x86-TSO) loads are not reordered with earlier loads, so a plain
// load is enough; elsewhere the CAS, a full barrier, orders it.
func (l *seqMutex) readValid(s uint64) bool {
	if runtime.GOARCH == "amd64" {
		return l.seq.Load() == s
	}
	return l.seq.CompareAndSwap(s, s)
}

// Pool is an AIFM-style far-memory object pool: a contiguous metadata table
// (one 8-byte word per object — this very table is what TrackFM exposes as
// its object state table), a local arena divided into object-size slots, a
// clock evacuator, and pin counts — what an AIFM DerefScope holds on an
// object while it is in scope.
//
// Pool is safe for concurrent use. State shards into lock stripes by
// ObjectID; metadata words are read with single atomic loads on the guard
// fast path and written only under the owning stripe's lock; a resident
// read (Access) copies with no lock and validates against the stripe's
// sequence; concurrent demand fetches of the same object collapse into one
// fabric round-trip (singleflight). A client moves an object's bytes one
// of two ways: Access copies them under the pool's guarantee, and Pin lends
// the object's window until the matching Unpin.
type Pool struct {
	env     *sim.Env
	lat     *sim.Latencies
	far     *far.Engine // everything past "this object is not local"
	objSize int

	table []Meta // object state table, indexed by ObjectID

	stripes [numStripes]stripe

	arena     []byte     // every slot's bytes
	slotOwner []ObjectID // per-slot owner (atomic); noOwner when empty

	// Slot accounting. freeSlots is the circulating free stack; retired
	// holds capacity a shrink parked outside the current budget, which a
	// grow back toward the starting budget reactivates; reserveFree
	// is the emergency floor demand localization may borrow from when
	// every circulating slot is pinned. curSlots counts circulating
	// slots (free + resident, excluding the reserve) and converges to
	// targetSlots lazily after a shrink that found only pinned victims.
	freeMu      sync.Mutex
	freeSlots   []uint32
	retired     []uint32
	reserveFree []uint32
	curSlots    int

	resizeMu     sync.Mutex   // serializes Resize; never held on a hot path
	targetSlots  atomic.Int64 // current budget in slots
	reserveFloor int
	resident     atomic.Int64 // slots holding object data
	pinnedObjs   atomic.Int64 // distinct resident objects with pins > 0
	resizes      atomic.Uint64

	evictClock // the clock hand and the cold-resident count

	// Stride-prefetch state.
	autoPrefetch  bool
	prefetchDepth int
	strideMu      sync.Mutex
	lastMiss      ObjectID
	missStreak    int

	// Memory-pressure state: the throttle (see Throttle) and the windowed
	// re-fault (thrash) detector. thrashEWMA holds float64 bits; thrashMu
	// guards only the window accumulators and is taken on the remote-fetch
	// slow path, never on a hit.
	throttled    atomic.Bool
	protectPF    bool
	thrashWindow uint64
	thrashMu     sync.Mutex
	twFetches    uint64
	twRefaults   uint64
	thrashEWMA   atomic.Uint64

	// Prefetches in flight, oldest first; at most pendingWindow. pendMu is
	// a leaf lock and is never held across a wait for bytes.
	pendMu  sync.Mutex
	pending []pendingPrefetch

	gov governor // Govern's state beside throttled; off every hot path
}

// governor is what the anti-thrash governor (Govern) keeps besides the
// throttle it switches: the clock reading of its last decision, the calm
// streak, the tier budget a throttle halved, and how often it throttled.
type governor struct {
	mu        sync.Mutex // serializes decisions
	lastTick  uint64
	calm      int
	savedTier uint64
	throttles atomic.Uint64
}

const (
	noOwner = ObjectID(^uint64(0))

	// numStripes is the lock-stripe count (a power of two). Metadata, pin
	// counts, and in-flight fetch state shard by ObjectID across stripes
	// so goroutines touching different objects rarely contend.
	numStripes = 64

	// dsID tags the pool's objects in metadata words (AIFM's data
	// structure id): TrackFM uses a single unified pool, id 0.
	dsID = 0

	// reservePerStripe sizes the reserve floor, the emergency slots kept
	// outside the circulating budget: demand localization dips into them
	// only when every circulating slot is pinned, guaranteeing forward
	// progress at 100% pinned occupancy. 2 slots per lock stripe is the
	// maximum demand localizations one stripe can have simultaneously
	// borrowing before a freed slot repays the floor.
	reservePerStripe = 2

	// slotWait and slotRetryPause pace claimSlot's retries of a lap that
	// found every evictable resident busy or its write-back refused.
	slotWait       = 10 * time.Second
	slotRetryPause = 50 * time.Microsecond

	// throttleHighWater is the prefetch-admission gate while throttled:
	// above this occupancy fraction a prefetch is skipped.
	throttleHighWater = 0.75

	// govHigh is the thrash ratio at or above which Govern throttles; a
	// reading at or below govLow counts as calm, and govHold consecutive
	// calm readings lift the throttle. Every run of -exp thrash has used
	// these values, and BENCH_thrash.json is what they were judged by.
	govHigh = 0.35
	govLow  = govHigh / 3
	govHold = 3
)

// NewPool validates cfg and builds a pool.
func NewPool(cfg Config) (*Pool, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("aifm: Config.Env is required")
	}
	if cfg.ObjectSize < 64 || cfg.ObjectSize > fabric.MaxPayload || bits.OnesCount(uint(cfg.ObjectSize)) != 1 {
		return nil, fmt.Errorf("aifm: ObjectSize %d must be a power of two in [64, %d]", cfg.ObjectSize, fabric.MaxPayload)
	}
	if cfg.HeapSize == 0 {
		return nil, fmt.Errorf("aifm: HeapSize is required")
	}
	nObjects := (cfg.HeapSize + uint64(cfg.ObjectSize) - 1) / uint64(cfg.ObjectSize)
	if nObjects >= 1<<38 {
		return nil, fmt.Errorf("aifm: HeapSize/ObjectSize = %d objects exceeds the 38-bit object-id space", nObjects)
	}
	nSlots := cfg.LocalBudget / uint64(cfg.ObjectSize)
	if nSlots == 0 {
		return nil, fmt.Errorf("aifm: LocalBudget %d holds no %dB objects", cfg.LocalBudget, cfg.ObjectSize)
	}
	depth := cfg.PrefetchDepth
	if depth <= 0 {
		depth = 8
	}
	// Cap the stride-prefetch window to a quarter of local memory so
	// speculation cannot crowd out the resident set.
	if cap := int(nSlots) / 4; depth > cap {
		depth = cap
		if depth < 1 {
			depth = 1
		}
	}
	reserve := reservePerStripe * numStripes
	if reserve > int(nSlots) {
		reserve = int(nSlots)
	}
	// The arena holds the starting budget plus the reserve floor, so slot
	// indices are stable for the pool's lifetime and lock-free slotOwner
	// readers never race a reallocation. Slots [0, nSlots) start
	// circulating and [nSlots, nSlots+reserve) form the reserve floor.
	totalSlots := nSlots + uint64(reserve)
	// The re-fault window: an object evicted and fetched again within four
	// full-pool refill times counts as a re-fault, the thrash detector's
	// raw signal.
	thrashWindow := 4 * nSlots * cfg.Env.Costs.RemoteObjectFetch(cfg.ObjectSize)
	if thrashWindow == 0 {
		thrashWindow = 1 << 22
	}
	engine, err := far.New(far.Config{
		Env:              cfg.Env,
		RemoteConfig:     cfg.RemoteConfig,
		Backend:          fabric.BackendTCP,
		UnitSize:         cfg.ObjectSize,
		CompressedBudget: cfg.CompressedBudget,
	})
	if err != nil {
		return nil, fmt.Errorf("aifm: %w", err)
	}
	p := &Pool{
		env:          cfg.Env,
		lat:          cfg.Env.Lat(),
		far:          engine,
		objSize:      cfg.ObjectSize,
		table:        make([]Meta, nObjects),
		arena:        make([]byte, totalSlots*uint64(cfg.ObjectSize)),
		slotOwner:    make([]ObjectID, totalSlots),
		freeSlots:    make([]uint32, 0, nSlots),
		curSlots:     int(nSlots),
		reserveFloor: reserve,
		autoPrefetch: cfg.AutoPrefetch,
		protectPF:    cfg.ProtectPrefetch,
		lastMiss:     noOwner,
		thrashWindow: thrashWindow,
		pending:      make([]pendingPrefetch, 0, pendingWindow),
	}
	p.targetSlots.Store(int64(nSlots))
	p.prefetchDepth = depth
	for i := range p.stripes {
		p.stripes[i].pins = make(map[ObjectID]uint32)
		p.stripes[i].inflight = make(map[ObjectID]struct{})
		p.stripes[i].done.L = &p.stripes[i].mu
		for j := range p.stripes[i].ghostID {
			p.stripes[i].ghostID[j] = noOwner
		}
	}
	for i := range p.slotOwner {
		p.slotOwner[i] = noOwner
	}
	// Free-stack push order 0..nSlots-1 is unchanged from the fixed-budget
	// pool, preserving the LIFO allocation order deterministic tests pin.
	for i := 0; i < int(nSlots); i++ {
		p.freeSlots = append(p.freeSlots, uint32(i))
	}
	for i := int(nSlots); i < int(totalSlots); i++ {
		p.reserveFree = append(p.reserveFree, uint32(i))
	}
	return p, nil
}

// ObjectSize reports the pool's fixed object size in bytes.
func (p *Pool) ObjectSize() int { return p.objSize }

// NumObjects reports the metadata table capacity.
func (p *Pool) NumObjects() uint64 { return uint64(len(p.table)) }

// NumSlots reports how many objects fit in local memory at once under the
// current budget (the Resize target, excluding the reserve floor).
func (p *Pool) NumSlots() int { return int(p.targetSlots.Load()) }

// MaxSlots reports the slot capacity Resize may grow to: the starting
// budget's.
func (p *Pool) MaxSlots() int { return len(p.slotOwner) - p.reserveFloor }

// Far exposes the pool's far engine: its compressed tier, which Govern
// resizes, and its degraded-mode breaker, which the deadline misses alone
// trip (ForceDegrade is for tests).
func (p *Pool) Far() *far.Engine { return p.far }

// Close closes the far engine: the tier's buffer leases go home and a
// connection the pool itself dialed (the Config.RemoteAddr path) is
// released.
func (p *Pool) Close() error {
	p.drainPending() // the transport owns those slots until its tickets are waited on
	return p.far.Close()
}

// Table exposes the contiguous metadata table. The TrackFM layer aliases
// this slice as its object state table; because it is the same storage,
// the table is coherent with pool state by construction (the paper
// modified AIFM to keep its table coherent — sharing storage achieves the
// same contract). Concurrent readers must load entries through MetaAt.
func (p *Pool) Table() []Meta { return p.table }

// MetaAt atomically loads entry id of a metadata table returned by Table.
// This is the guard's single-load OST lookup, made race-free: the pool
// publishes every metadata transition with an atomic store, so a bare
// atomic load is all a concurrent fast-path check needs.
func MetaAt(table []Meta, id ObjectID) Meta {
	return Meta(atomic.LoadUint64((*uint64)(&table[id])))
}

// Meta returns the metadata word for id (atomic load).
func (p *Pool) Meta(id ObjectID) Meta { return MetaAt(p.table, id) }

func (p *Pool) metaAt(id ObjectID) Meta {
	return Meta(atomic.LoadUint64((*uint64)(&p.table[id])))
}

func (p *Pool) ownerAt(slot int) ObjectID {
	return ObjectID(atomic.LoadUint64((*uint64)(&p.slotOwner[slot])))
}

func (p *Pool) setOwner(slot int, id ObjectID) {
	atomic.StoreUint64((*uint64)(&p.slotOwner[slot]), uint64(id))
}

func (p *Pool) stripeFor(id ObjectID) *stripe {
	return &p.stripes[uint64(id)%numStripes]
}

// lockStripe acquires a stripe lock, counting and timing the wait when the
// lock is contended. The wait is wall time converted to cycles at the
// simulated frequency — real contention on the host, not simulated time,
// so it is zero in any single-goroutine run.
func (p *Pool) lockStripe(st *stripe) {
	if st.mu.TryLock() {
		return
	}
	t0 := time.Now()
	st.mu.Lock()
	sim.Inc(&p.env.Counters.StripeContention)
	p.lat.LockWait.Observe(uint64(float64(time.Since(t0).Nanoseconds()) * sim.Frequency / 1e9))
}

// LocalBytes reports bytes of object data currently resident locally.
func (p *Pool) LocalBytes() uint64 {
	return uint64(p.resident.Load()) * uint64(p.objSize)
}

// ResidentSlots reports how many slots currently hold object data.
func (p *Pool) ResidentSlots() int { return int(p.resident.Load()) }

// PinnedObjects reports how many distinct resident objects are pinned.
func (p *Pool) PinnedObjects() int { return int(p.pinnedObjs.Load()) }

// ReserveFloor reports the emergency-slot floor.
func (p *Pool) ReserveFloor() int { return p.reserveFloor }

// ReserveFree reports how many reserve-floor slots are currently
// unborrowed. It equals ReserveFloor except transiently while demand
// localizations at 100% pinned occupancy are borrowing from the floor.
func (p *Pool) ReserveFree() int {
	p.freeMu.Lock()
	n := len(p.reserveFree)
	p.freeMu.Unlock()
	return n
}

// CurrentSlots reports the circulating slot count (free + resident,
// excluding the reserve). It converges to NumSlots lazily after a shrink
// whose only remaining victims were pinned.
func (p *Pool) CurrentSlots() int {
	p.freeMu.Lock()
	n := p.curSlots
	p.freeMu.Unlock()
	return n
}

// Resizes reports how many Resize calls the pool has absorbed.
func (p *Pool) Resizes() uint64 { return p.resizes.Load() }

// ThrashRatio reports the EWMA fraction of remote fetches that were
// re-faults (fetches of an object evicted within the thrash window), the
// pool's thrash signal in [0, 1].
func (p *Pool) ThrashRatio() float64 {
	return math.Float64frombits(p.thrashEWMA.Load())
}

// PrefetchDepth reports the stride-prefetch depth: the configured one, or
// 0 while the pool is throttled.
func (p *Pool) PrefetchDepth() int {
	if p.throttled.Load() {
		return 0
	}
	return p.prefetchDepth
}

// Throttle switches the pool into (or out of) its answer to memory
// pressure, Govern's lever on it; tests also switch it directly. While
// throttled, stride prefetch pauses (PrefetchDepth reads 0), a prefetch
// above throttleHighWater occupancy is skipped rather than allowed to
// evict, and eviction reclaims prefetched-but-unused residents first, so
// speculation already in memory goes before anything demand-loaded.
func (p *Pool) Throttle(on bool) { p.throttled.Store(on) }

// Throttled reports whether the pool is throttled.
func (p *Pool) Throttled() bool { return p.throttled.Load() }

// Govern runs the anti-thrash governor, a control loop on the pool's
// simulated clock over ThrashRatio with two states, normal and throttled
// (Throttled). It makes at most one decision per eighth of the thrash
// window, so several samples fold into the ratio between readings; between
// decisions a call is a clock read and a compare under a mutex. One
// reading at or above govHigh throttles the pool and halves the compressed
// tier, the most expendable consumer of local bytes; recovery takes govHold
// consecutive calm readings, so the governor does not flap while the ratio
// decays, and restores the tier's budget. Nothing schedules it: a caller
// invokes Govern from its access loop, so a deterministic workload yields a
// deterministic control trace, and a pool nobody calls it on is
// ungoverned. Govern is safe for concurrent use.
func (p *Pool) Govern() {
	now, g, tier := p.env.Clock.Cycles(), &p.gov, p.far.Tier()
	g.mu.Lock()
	defer g.mu.Unlock()
	if now-g.lastTick < max(p.thrashWindow/8, 1) {
		return
	}
	g.lastTick = now
	ratio := p.ThrashRatio()
	switch {
	case !p.Throttled():
		if ratio >= govHigh {
			p.Throttle(true)
			g.savedTier = tier.Budget() // 0 without a tier
			tier.Resize(g.savedTier / 2)
			g.calm = 0
			g.throttles.Add(1)
		}
	case ratio > govLow:
		g.calm = 0
	default:
		if g.calm++; g.calm >= govHold {
			p.Throttle(false)
			if g.savedTier > 0 { // not a throttle someone else switched on
				tier.Resize(g.savedTier)
			}
			g.calm = 0
		}
	}
}

// Localize ensures object id is resident in local memory and returns the
// arena offset of its first byte. forWrite marks the object dirty. The
// bool result reports whether the call had to perform a blocking remote
// fetch (a "critical" fetch in the paper's terminology).
//
// Localize exists for benchmarks/fmbench alone, which times it; no other
// code calls it (make vet enforces this). It neither pins nor copies, so
// the offset it returns is stale as soon as a concurrent eviction runs,
// and it panics on a fetch the far engine gives up on. Move bytes with
// Access or Pin instead.
func (p *Pool) Localize(id ObjectID, forWrite bool) (uint64, bool) {
	addr, missed, err := p.tryLocalize(id, forWrite, false)
	if err != nil {
		panic(fmt.Sprintf("aifm: unrecoverable remote fetch for object %d: %v", id, err))
	}
	return addr, missed
}

// touchLocked records a demand access to resident object id, whose
// metadata word the caller loaded as m under the stripe lock: hot, dirty
// when forWrite, and a prefetched object is consumed (a prefetch hit).
func (p *Pool) touchLocked(id ObjectID, m Meta, forWrite bool) {
	nm := m | MetaH
	if forWrite {
		nm |= MetaD
	}
	if m.Prefetched() {
		nm &^= MetaPF
		sim.Inc(&p.env.Counters.PrefetchHits)
	}
	if nm != m {
		p.storeMeta(id, nm)
	}
}

// tryLocalize is the shared localize path. Residency checks, metadata
// updates, and pinning happen under the object's stripe lock; the fetch
// itself (slot claim + fabric round-trip) runs outside any lock, with an
// inflight entry collapsing concurrent fetches of the same object into one
// round-trip that all callers share.
func (p *Pool) tryLocalize(id ObjectID, forWrite, pin bool) (uint64, bool, error) {
	st := p.stripeFor(id)
	p.lockStripe(st)
	waited := false
	for {
		m := p.metaAt(id)
		if m.Present() {
			p.touchLocked(id, m, forWrite)
			if pin {
				p.pinLocked(st, id)
			}
			st.mu.Unlock()
			return m.DataAddr(), false, nil
		}
		if _, ok := st.inflight[id]; ok {
			// The claim may be a prefetch still in flight with nobody
			// driving it: take it over, finish it and re-check — the object
			// is then resident and prefetched, and this access its hit.
			if p.finishPendingLocked(st, id) {
				continue
			}
			// Another goroutine is already fetching this object: wait on
			// the stripe's rendezvous and re-check (the broadcast may have
			// been for a different object in the stripe, or the leader may
			// have failed — in which case the loop elects this caller the
			// next leader). The shared-fetch counter ticks once per
			// localize that joined a leader, not once per wakeup.
			if !waited {
				waited = true
				sim.Inc(&p.env.Counters.SingleflightShared)
			}
			st.done.Wait()
			continue
		}
		st.inflight[id] = struct{}{}
		st.mu.Unlock()
		return p.fetchAndInstall(st, id, m, forWrite, pin)
	}
}

// abandonFetch clears id's singleflight claim without publishing it and
// wakes the stripe's waiters so one of them can take over (or observe the
// failure).
func (p *Pool) abandonFetch(st *stripe, id ObjectID) {
	p.lockStripe(st)
	delete(st.inflight, id)
	st.done.Broadcast()
	st.mu.Unlock()
}

// fetchAndInstall runs the singleflight leader's side of a demand miss:
// claim a slot (evicting if needed), move the bytes, then re-take the
// stripe lock to publish the object and wake the waiters.
func (p *Pool) fetchAndInstall(st *stripe, id ObjectID, m Meta, forWrite, pin bool) (uint64, bool, error) {
	slot, err := p.claimSlot()
	if err != nil {
		p.abandonFetch(st, id)
		if !errors.Is(err, far.ErrDegraded) {
			panic(err.Error())
		}
		return 0, true, err
	}
	base := uint64(slot) * uint64(p.objSize)
	fresh := m == 0 || m == metaFreed // materialize a zeroed object locally
	fromTier := false
	if fresh {
		p.zeroSlot(base)
	} else {
		// Demand miss on an evacuated object: tier probe, then blocking
		// remote fetch, straight into the claimed (unpublished) slot.
		var err error
		fromTier, err = p.far.Fetch(uint64(id), p.slotBytes(base))
		if err != nil {
			p.giveSlot(slot)
			p.abandonFetch(st, id)
			return 0, true, err
		}
	}
	nm := LocalMeta(base, dsID) | MetaH
	if forWrite || m == metaFreed {
		nm |= MetaD
	}
	p.lockStripe(st)
	p.setOwner(int(slot), id)
	p.storeMeta(id, nm)
	if pin {
		p.pinLocked(st, id)
	}
	refault := !fresh && p.consumeGhostLocked(st, id)
	delete(st.inflight, id)
	st.done.Broadcast()
	st.mu.Unlock()
	p.resident.Add(1)
	if fresh {
		return base, false, nil
	}
	if fromTier {
		// A tier hit paid no fabric round trip: it is not a remote
		// fetch, not a re-fault the thrash detector should stew over
		// (the tier is absorbing the churn — that is its job), and no
		// reason to trigger stride prefetch of further remote objects.
		return base, true, nil
	}
	if refault {
		sim.Inc(&p.env.Counters.Refaults)
	}
	p.noteFetchSample(refault)
	sim.Inc(&p.env.Counters.RemoteFetches)
	sim.Inc(&p.env.Counters.CriticalFetches)
	p.maybeStridePrefetch(id)
	return base, true, nil
}

// claimSlot finds the slot a demand fetch lands in. A resident the clock
// passed over because its stripe was busy, or because its write-back was
// refused — the far engine's write-behind window full of pushes other
// callers still have in flight, or a push that failed — may be takable a
// moment later. So when no slot is free, evictable, held by a landed
// prefetch or left in the reserve floor, a lap that passed over such a
// resident is run again after a pause, for up to slotWait. It fails when
// a lap found nothing of the kind: every resident is pinned; when the far
// engine is degraded, with far.ErrDegraded, for a degraded engine refuses
// all dirty write-backs but its probes (a later lap's may free a slot);
// or when that time runs out.
func (p *Pool) claimSlot() (uint32, error) {
	var giveUp time.Time
	for {
		slot, ok, blocked := p.tryTakeSlot()
		if !ok && p.drainPending() {
			// Slots held by prefetches in flight are invisible to the clock;
			// landed, they are residents like any other.
			slot, ok, blocked = p.tryTakeSlot()
		}
		if !ok {
			// Every circulating slot is pinned or busy: borrow from the
			// reserve floor so demand localization keeps making forward
			// progress. The next freed slot repays the floor (giveSlot
			// refills the reserve before the free stack).
			slot, ok = p.popReserve()
		}
		switch {
		case ok:
			return slot, nil
		case !blocked:
			return 0, p.exhausted()
		case p.far.Degraded():
			return 0, fmt.Errorf("aifm: no slot: every resident is dirty and the reserve floor is spent: %w", far.ErrDegraded)
		}
		if now := time.Now(); giveUp.IsZero() {
			giveUp = now.Add(slotWait)
		} else if now.After(giveUp) {
			return 0, fmt.Errorf("aifm: local memory exhausted: for %v every resident's stripe was busy or its write-back refused", slotWait)
		}
		time.Sleep(slotRetryPause)
	}
}

// exhausted is claimSlot's failure when a lap found nothing to take and
// nothing worth waiting for, with what the pool held just after it: the
// residents and how many are pinned, the slots owned by nobody that are
// neither free nor awaiting a prefetch (claims in flight), the prefetches
// pending, the free and reserve slots, and the budget.
func (p *Pool) exhausted() error {
	unowned := 0
	for slot := range p.slotOwner {
		if p.ownerAt(slot) == noOwner {
			unowned++
		}
	}
	pending := p.PendingPrefetches()
	p.freeMu.Lock()
	free, retired, reserve := len(p.freeSlots), len(p.retired), len(p.reserveFree)
	p.freeMu.Unlock()
	return fmt.Errorf("aifm: local memory exhausted: every resident slot and the reserve floor are pinned "+
		"(%d residents, %d pinned; %d slots claimed in flight, %d prefetches pending; %d free, %d of %d reserve slots free; target %d slots)",
		p.resident.Load(), p.PinnedObjects(), unowned-free-retired-reserve-pending, pending, free, reserve, p.reserveFloor, p.targetSlots.Load())
}

// Prefetch asynchronously localizes id if it is remote and a slot can be
// found without displacing hot data: a prefetch may reuse free slots or
// evict cold objects, but never steals a slot whose object was accessed
// since the last sweep — speculative data must not pollute the working
// set. It is used both by the TrackFM compiler-directed prefetch pass and
// by the runtime stride detector.
func (p *Pool) Prefetch(id ObjectID) {
	if id >= ObjectID(len(p.table)) {
		return
	}
	if p.far.Degraded() {
		return // no speculation against a fabric that is missing deadlines
	}
	// Admission gate: above the high-water mark a prefetch would have to
	// evict to make room, and under pressure speculation must not displace
	// residents — skip, don't evict.
	if p.throttled.Load() {
		if target := p.targetSlots.Load(); target > 0 &&
			1-float64(p.freeCount())/float64(target) > throttleHighWater {
			sim.Inc(&p.env.Counters.PrefetchSkippedPressure)
			return
		}
	}
	st := p.stripeFor(id)
	p.lockStripe(st)
	m := p.metaAt(id)
	if m.Present() || m == metaFreed {
		st.mu.Unlock()
		return // a freed object's zeros are left to its demand access
	}
	if _, busy := st.inflight[id]; busy {
		st.mu.Unlock()
		return // a demand fetch or another prefetch already owns it
	}
	st.inflight[id] = struct{}{}
	st.mu.Unlock()
	slot, ok := p.tryTakeSlotGentle()
	if !ok {
		p.abandonFetch(st, id)
		return // nothing cold to displace; skip rather than pollute
	}
	base := uint64(slot) * uint64(p.objSize)
	if m == 0 {
		// Never-touched object: materialize zeros without network.
		p.zeroSlot(base)
		p.installPrefetched(st, id, slot, true, false)
		return
	}
	// The window is FIFO: a full one gives up its oldest prefetch — landed
	// now, whether or not anyone still wants it — before another starts.
	if oldest, full := p.popPending(true); full {
		p.finishPending(oldest)
	}
	pf, err := p.far.StartPrefetch(uint64(id), p.slotBytes(base))
	if err != nil {
		// Prefetch is speculation: on persistent failure, give the
		// slot back and leave the object remote rather than
		// installing a zero-filled ghost.
		p.giveSlot(slot)
		p.abandonFetch(st, id)
		return
	}
	if pf.Pending() {
		// The bytes are on their way into the slot. The object keeps its
		// inflight claim and the slot stays unpublished until whoever
		// finishes the prefetch installs it.
		p.parkPending(pendingPrefetch{id: id, slot: slot, pf: pf})
		return
	}
	fromTier, _ := p.far.FinishPrefetch(pf)
	p.installPrefetched(st, id, slot, false, fromTier)
}

// installPrefetched publishes a prefetched object in its slot — resident,
// marked MetaPF until a demand access consumes it — releases its inflight
// claim and wakes the stripe's waiters. It is the one tail of every
// prefetch, whether it completed on the spot or was finished later.
func (p *Pool) installPrefetched(st *stripe, id ObjectID, slot uint32, fresh, fromTier bool) {
	remote := !fresh && !fromTier
	if remote {
		sim.Inc(&p.env.Counters.PrefetchIssued)
		sim.Inc(&p.env.Counters.RemoteFetches)
	}
	p.lockStripe(st)
	p.setOwner(int(slot), id)
	p.storeMeta(id, LocalMeta(uint64(slot)*uint64(p.objSize), dsID)|MetaPF)
	refault := !fresh && p.consumeGhostLocked(st, id)
	delete(st.inflight, id)
	st.done.Broadcast()
	st.mu.Unlock()
	p.resident.Add(1)
	if refault && remote {
		sim.Inc(&p.env.Counters.Refaults)
	}
	if remote {
		p.noteFetchSample(refault)
	}
}

// RegisterObs exposes pool-level health on reg: the far engine's breaker
// and tier, and the memory-pressure gauges (residency, pins, reserve,
// thrash ratio, resizes, the governor's state and throttles). The
// Env-wide counters (deadline misses, re-faults, skipped prefetches) are
// already on Env.Metrics.
func (p *Pool) RegisterObs(reg *obs.Registry, labels ...obs.Label) {
	p.far.RegisterObs(reg, labels...)
	reg.GaugeFunc("trackfm_pool_resident_slots",
		"Slots currently holding object data.",
		func() float64 { return float64(p.resident.Load()) }, labels...)
	reg.GaugeFunc("trackfm_pool_pinned_slots",
		"Distinct resident objects currently pinned.",
		func() float64 { return float64(p.pinnedObjs.Load()) }, labels...)
	reg.GaugeFunc("trackfm_pool_reserve_slots",
		"Reserve-floor slots currently unborrowed.",
		func() float64 { return float64(p.ReserveFree()) }, labels...)
	reg.GaugeFunc("trackfm_thrash_ratio",
		"EWMA fraction of remote fetches that re-fetched a recently evicted object.",
		func() float64 { return p.ThrashRatio() }, labels...)
	reg.GaugeFunc("trackfm_pool_pending_prefetches",
		"Prefetches whose bytes are still in flight (slot claimed, object not yet resident).",
		func() float64 { return float64(p.PendingPrefetches()) }, labels...)
	reg.CounterFunc("trackfm_pool_resizes_total",
		"Runtime budget Resize calls absorbed by the pool.",
		func() uint64 { return p.resizes.Load() }, labels...)
	reg.GaugeFunc("trackfm_governor_state",
		"Anti-thrash governor state: 0 normal, 1 throttled.",
		func() float64 {
			if p.Throttled() {
				return 1
			}
			return 0
		}, labels...)
	reg.CounterFunc("trackfm_governor_throttles_total",
		"Times the governor throttled the pool.",
		p.gov.throttles.Load, labels...)
}

func (p *Pool) maybeStridePrefetch(id ObjectID) {
	if !p.autoPrefetch {
		return
	}
	p.strideMu.Lock()
	if p.lastMiss != noOwner && id == p.lastMiss+1 {
		p.missStreak++
	} else {
		p.missStreak = 0
	}
	p.lastMiss = id
	issue := p.missStreak >= 2
	p.strideMu.Unlock()
	depth := p.PrefetchDepth()
	if issue && depth > 0 {
		for k := 1; k <= depth; k++ {
			p.Prefetch(id + ObjectID(k))
		}
	}
}

// Pin localizes id, pins it and lends its bytes in place: win aliases
// local memory and stays valid until the matching Unpin. The pin is AIFM's
// scope: while any goroutine holds an object pinned, no evictor converges
// on it; residency and the pin are one stripe critical section, so none
// can slip between them. write marks the object dirty before the caller
// stores through win. fetched reports whether Pin paid a blocking remote
// fetch (a "critical" fetch in the paper's terminology).
//
// A failed fetch is re-issued by the far engine: at most RemoteRetries
// wire attempts in all, each re-issue paid from its retry budget, none if
// the error is permanent (see fabric.RemoteConfig.RemoteRetries). If the
// fetch still fails, Pin returns the typed fabric error with nothing
// pinned, the claimed slot back in circulation and the object's metadata
// untouched (still remote): the caller never sees a zero-filled ghost of
// its data.
func (p *Pool) Pin(id ObjectID, write bool) (win []byte, fetched bool, err error) {
	addr, fetched, err := p.tryLocalize(id, write, true)
	if err != nil {
		return nil, false, err
	}
	return p.slotBytes(addr), fetched, nil
}

// pinLocked increments id's pin count under its stripe lock, maintaining
// the pinned-object gauge across 0->1 transitions.
func (p *Pool) pinLocked(st *stripe, id ObjectID) {
	if st.pins[id] == 0 {
		p.pinnedObjs.Add(1)
	}
	st.pins[id]++
}

// Unpin drops one pin Pin took on id. Unpinning an unpinned object
// panics: it indicates a pin bookkeeping bug.
func (p *Pool) Unpin(id ObjectID) {
	st := p.stripeFor(id)
	p.lockStripe(st)
	p.unpinLocked(st, id)
	st.mu.Unlock()
}

// unpinLocked is Unpin for a caller that holds id's stripe lock; on a
// bookkeeping bug it releases the lock before it panics.
func (p *Pool) unpinLocked(st *stripe, id ObjectID) {
	n, ok := st.pins[id]
	switch {
	case !ok:
		st.mu.Unlock()
		panic("aifm: Unpin of unpinned object")
	case n == 1:
		delete(st.pins, id)
		p.pinnedObjs.Add(-1)
	default:
		st.pins[id] = n - 1
	}
}

// popFree pops the most recently freed slot (LIFO, preserving the
// single-goroutine allocation order tests pin down).
func (p *Pool) popFree() (uint32, bool) {
	p.freeMu.Lock()
	n := len(p.freeSlots)
	if n == 0 {
		p.freeMu.Unlock()
		return 0, false
	}
	slot := p.freeSlots[n-1]
	p.freeSlots = p.freeSlots[:n-1]
	p.freeMu.Unlock()
	return slot, true
}

// giveSlot returns a slot to circulation: first repay any borrowed
// reserve (the floor refills before anything else, so forward progress is
// always at most one freed slot away), then retire the slot if a shrink
// is still converging toward its target, otherwise push it on the free
// stack.
func (p *Pool) giveSlot(slot uint32) {
	p.freeMu.Lock()
	switch {
	case len(p.reserveFree) < p.reserveFloor:
		p.reserveFree = append(p.reserveFree, slot)
	case int64(p.curSlots) > p.targetSlots.Load():
		p.retired = append(p.retired, slot)
		p.curSlots--
	default:
		p.freeSlots = append(p.freeSlots, slot)
	}
	p.freeMu.Unlock()
}

// popReserve borrows a slot from the reserve floor. Demand localization
// only, and only after every circulating slot was found pinned.
func (p *Pool) popReserve() (uint32, bool) {
	p.freeMu.Lock()
	n := len(p.reserveFree)
	if n == 0 {
		p.freeMu.Unlock()
		return 0, false
	}
	slot := p.reserveFree[n-1]
	p.reserveFree = p.reserveFree[:n-1]
	p.freeMu.Unlock()
	return slot, true
}

func (p *Pool) freeCount() int {
	p.freeMu.Lock()
	n := len(p.freeSlots)
	p.freeMu.Unlock()
	return n
}

// Resize changes the pool's local budget at runtime, in bytes. Growth
// reactivates capacity an earlier shrink retired, up to the starting
// budget, and is immediate.
// Shrink first retires free slots, then evicts cold unpinned residents
// under the existing stripe locks (clock order, one hotness second
// chance); pinned residents are never touched, so a shrink below the
// pinned set completes incrementally — giveSlot retires slots as pins
// release — and the guard fast path never stalls or blocks on a resize.
// The reserve floor is unaffected by Resize.
func (p *Pool) Resize(newBudget uint64) error {
	newSlots := int64(newBudget / uint64(p.objSize))
	if newSlots < 1 {
		return fmt.Errorf("aifm: Resize budget %d holds no %dB objects", newBudget, p.objSize)
	}
	if max := int64(p.MaxSlots()); newSlots > max {
		return fmt.Errorf("aifm: Resize to %d slots exceeds the starting capacity of %d", newSlots, max)
	}
	p.resizeMu.Lock()
	defer p.resizeMu.Unlock()
	p.drainPending() // a shrink can reclaim a landed prefetch, not one in flight
	p.targetSlots.Store(newSlots)
	p.resizes.Add(1)
	p.freeMu.Lock()
	// Grow: reactivate retired capacity.
	for int64(p.curSlots) < newSlots && len(p.retired) > 0 {
		n := len(p.retired) - 1
		p.freeSlots = append(p.freeSlots, p.retired[n])
		p.retired = p.retired[:n]
		p.curSlots++
	}
	// Shrink, step 1: retire free slots — no eviction needed for these.
	for int64(p.curSlots) > newSlots && len(p.freeSlots) > 0 {
		n := len(p.freeSlots) - 1
		p.retired = append(p.retired, p.freeSlots[n])
		p.freeSlots = p.freeSlots[:n]
		p.curSlots--
	}
	over := int64(p.curSlots) > newSlots
	p.freeMu.Unlock()
	if !over {
		return nil
	}
	// Shrink, step 2: evict the coldest unpinned residents and retire
	// their slots. Victims are taken with TryLock exactly like demand
	// eviction, so a resize never blocks a mutator; whatever is still
	// over target after two passes (pinned, contended, or write-back
	// stalled) shrinks lazily through giveSlot.
	for pass := 0; pass < 2 && p.overTarget(); pass++ {
		for i := 0; i < len(p.slotOwner) && p.overTarget(); i++ {
			st, slot, id, m, _ := p.probeVictim(-1)
			if st == nil {
				continue
			}
			if pass == 0 && m.Hot() {
				p.storeMeta(id, m&^MetaH)
			} else if p.evictLocked(slot, id) {
				p.giveSlot(slot) // over target, so this retires
			}
			st.mu.Unlock()
		}
	}
	return nil
}

// overTarget reports whether circulating slots still exceed the Resize
// target.
func (p *Pool) overTarget() bool {
	p.freeMu.Lock()
	over := int64(p.curSlots) > p.targetSlots.Load()
	p.freeMu.Unlock()
	return over
}

// EvacuateAll force-evacuates every unpinned resident object; tests and
// experiment setup use it to start measurement phases fully cold.
func (p *Pool) EvacuateAll() {
	p.drainPending()
	for slot := range p.slotOwner {
		id := p.ownerAt(slot)
		if id == noOwner {
			continue
		}
		st := p.stripeFor(id)
		p.lockStripe(st)
		if p.ownerAt(slot) != id || st.pins[id] > 0 || !p.metaAt(id).Present() {
			st.mu.Unlock()
			continue
		}
		if p.evictLocked(uint32(slot), id) {
			p.giveSlot(uint32(slot))
		}
		st.mu.Unlock()
	}
	// Evacuated means far. A flush that fails leaves the copies where a
	// fetch still finds them, to be pushed with the next exchange.
	_ = p.far.Flush()
}

// slotBytes returns the objSize bytes of the slot at arena offset base.
func (p *Pool) slotBytes(base uint64) []byte {
	end := base + uint64(p.objSize)
	return p.arena[base:end:end]
}

// zeroSlot materializes a never-touched object in the slot at base.
func (p *Pool) zeroSlot(base uint64) {
	clear(p.arena[base : base+uint64(p.objSize)])
}

// Access is the scalar guarded access: it moves len(buf) bytes between buf
// and object id at byte offset off, localizing the object first. A write
// marks the object dirty.
//
// A read of at most racyMax bytes of a resident, hot object takes no lock:
// it notes its stripe's sequence, loads the metadata word, copies into a
// scratch of its own, and hands the bytes to buf if the sequence has not
// moved — no store, eviction or Free ran in the stripe meanwhile
// (readBegin). A copy it discards never touched buf, so a read that then
// misses and fails leaves buf as it was. It runs only when the locked path would write
// nothing (P and H set, E and PF clear), so no metadata bit or counter
// depends on which path served it. Validating with the sequence rather than
// the metadata word matters: an object evicted and fetched back into the
// same slot can restore an identical word. A -race build skips it
// (raceEnabled): its copy is invisible to the detector, which would hide
// the program's own races.
//
// Otherwise, on a resident object the residency check, the metadata update
// and the copy share one stripe critical section — the lock excludes every
// evictor for the length of the copy exactly as a pin would, so none is
// taken. A miss is Pin, then the copy and the unpin in one critical
// section, so the copy is atomic with respect to every other Access of the
// object. A fetch that fails fails as Pin's does: Access returns the typed
// fabric error with buf, the object's metadata and its pins as they were.
func (p *Pool) Access(id ObjectID, off uint64, buf []byte, write bool) error {
	if off+uint64(len(buf)) > uint64(p.objSize) {
		panic("aifm: Access beyond the object's end") // before the lock is taken
	}
	st := p.stripeFor(id)
	if n := len(buf); !write && n <= racyMax {
		if addr, s, ok := p.readBegin(st, id); ok {
			addr += off
			var scratch [racyMax]byte
			racyCopy(scratch[:n], p.arena[addr:addr+uint64(n)])
			if st.mu.readValid(s) {
				copy(buf, scratch[:n])
				return nil
			}
		}
	}
	if addr, ok := p.lockResident(st, id, write); ok {
		p.copyLocked(addr+off, buf, write)
		st.mu.Unlock()
		return nil
	}
	return p.accessMiss(st, id, off, buf, write)
}

// Word is Access for the 8 bytes at byte offset off of object id, read or,
// when write, stored from v, as a little-endian word: it returns the word
// the object holds after the access. A resident access is one 8-byte load
// or store — the read lock-free and validated as Access's, the write under
// the stripe lock after the same metadata update — and every other state
// goes through Access's miss path, so a failed fetch returns the same typed
// error with nothing changed.
func (p *Pool) Word(id ObjectID, off, v uint64, write bool) (uint64, error) {
	if off+8 > uint64(p.objSize) {
		panic("aifm: Word beyond the object's end") // before the lock is taken
	}
	st := p.stripeFor(id)
	if !write {
		if addr, s, ok := p.readBegin(st, id); ok {
			w := racyWord(p.arena[addr+off : addr+off+8])
			if st.mu.readValid(s) {
				return w, nil
			}
		}
	}
	if addr, ok := p.lockResident(st, id, write); ok {
		w := p.arena[addr+off : addr+off+8]
		if write {
			binary.LittleEndian.PutUint64(w, v)
		} else {
			v = binary.LittleEndian.Uint64(w)
		}
		st.mu.Unlock()
		return v, nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	if err := p.accessMiss(st, id, off, buf[:], write); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// readBegin starts a lock-free read of object id, whose stripe is st: it
// returns the arena address of the object's first byte and the sequence
// the read must pass to st.mu.readValid before keeping what it loaded. ok
// is false when the read must take the lock instead: in a -race build,
// while a critical section runs, or unless the object is resident and hot
// with E and PF clear — the one state in which the locked read would write
// nothing.
func (p *Pool) readBegin(st *stripe, id ObjectID) (addr, seq uint64, ok bool) {
	if raceEnabled {
		return 0, 0, false
	}
	if seq, ok = st.mu.readBegin(); !ok {
		return 0, 0, false
	}
	m := p.metaAt(id)
	if m&(MetaP|MetaE|MetaH|MetaPF) != MetaP|MetaH {
		return 0, 0, false
	}
	return m.DataAddr(), seq, true
}

// lockResident takes st's lock and, when object id is resident, records
// the access (touchLocked) and returns the arena address of its first byte
// with the lock still held; otherwise it releases the lock and reports
// false.
func (p *Pool) lockResident(st *stripe, id ObjectID, write bool) (uint64, bool) {
	if !st.mu.TryLock() { // lockStripe's fast path, inlined on every resident access's path
		p.lockStripe(st)
	}
	if m := p.metaAt(id); m.Present() {
		p.touchLocked(id, m, write)
		return m.DataAddr(), true
	}
	st.mu.Unlock()
	return 0, false
}

// accessMiss is Access of an object that was not resident: Pin, then the
// copy and the unpin in one critical section.
func (p *Pool) accessMiss(st *stripe, id ObjectID, off uint64, buf []byte, write bool) error {
	addr, _, err := p.tryLocalize(id, write, true) // a write has set D
	if err != nil {
		return err
	}
	p.lockStripe(st)
	p.copyLocked(addr+off, buf, write)
	p.unpinLocked(st, id)
	st.mu.Unlock()
	return nil
}

// copyLocked is Access's copy between buf and arena bytes at addr.
func (p *Pool) copyLocked(addr uint64, buf []byte, write bool) {
	obj := p.arena[addr : addr+uint64(len(buf))]
	if write {
		copy(obj, buf)
	} else {
		copy(buf, obj)
	}
}

// racyMax bounds the reads Access serves without a lock, whose bytes wait
// in a scratch on the stack until they are known good.
const racyMax = 256

// racyCopy copies src to dst for Access's lock-free read, which may race
// a store into src; the caller discards the bytes unless its sequence
// check shows no store ran. It is hidden from the race detector for that
// reason, and must not call copy: runtime.slicecopy instruments itself.
// Being hidden, it would also hide a race the program itself has on those
// bytes — a guarded load against a Cursor store into the same word — so a
// -race build never calls it (raceEnabled) and every read there takes the
// locked, instrumented path; the torn-read test runs without -race to
// cover this one.
//
//go:norace
func racyCopy(dst, src []byte) {
	n := len(dst)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] = src[i]
	}
}

// racyWord is racyCopy for Word's lock-free read of one word.
//
//go:norace
func racyWord(src []byte) uint64 { return binary.LittleEndian.Uint64(src) }

// Free releases id: drops the local copy, deletes the remote copy, and
// resets metadata. Freeing a pinned object panics.
func (p *Pool) Free(id ObjectID) {
	st := p.stripeFor(id)
	p.lockStripe(st)
	// A prefetch of id still in flight would land old bytes in a freed
	// object: finish it first (it is then resident, and dropped below). If
	// it is not in the window its prefetcher is still driving it and will
	// install, abandon or park it — each ends in a broadcast.
	for {
		if _, claimed := st.inflight[id]; !claimed {
			break
		}
		if !p.finishPendingLocked(st, id) {
			st.done.Wait()
		}
	}
	if st.pins[id] > 0 {
		st.mu.Unlock()
		panic("aifm: Free of pinned object")
	}
	m := p.metaAt(id)
	if m.Present() {
		slot := uint32(m.DataAddr() / uint64(p.objSize))
		p.setOwner(int(slot), noOwner)
		p.resident.Add(-1)
		p.giveSlot(slot)
	}
	// Once the metadata word resets, the object materializes as zeros. A
	// delete the far node did not acknowledge may have left its last blob
	// there, which a clean eviction would leave to the next fetch: the word
	// then says so, and the materialization is dirty.
	if p.far.Delete(uint64(id)) {
		p.storeMeta(id, 0)
	} else {
		p.storeMeta(id, metaFreed)
	}
	st.mu.Unlock()
}
