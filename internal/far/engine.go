// Package far is the far half shared by both residency runtimes: everything
// between "this unit (an aifm object, a fastswap page) is not local" and
// the wire. An Engine resolves the fabric.RemoteConfig into a transport,
// probes the compressed middle tier, stamps per-operation deadlines, decides
// every re-issue of a failed remote operation under one retry budget (no
// layer below it retries), keeps the fault and overload accounting and the
// deadline-miss breaker, and writes a unit back and demotes it on eviction —
// behind the mutator's back where the transport can carry a push along with
// the next fetch (the write-behind window, window.go).
// What distinguishes the runtimes — object slots, stripes and pins against
// page frames and one mmap_lock — stays in aifm and fastswap, which call
// the engine directly.
package far

import (
	"errors"
	"fmt"
	"sync/atomic"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/ctier"
	"trackfm/internal/obs"
	"trackfm/internal/sim"
)

// ErrDegraded is returned by Fetch while the engine is in degraded mode:
// repeated deadline misses (or a test's ForceDegrade) have established
// that the fabric cannot currently answer within budget, so remote fetches
// fail fast instead of queueing behind a deadline they will miss. Tier
// hits keep serving; a trickle of probes — fetches and dirty write-backs —
// still reaches the network, and the first success lifts an organic
// degradation.
var ErrDegraded = errors.New("far: engine degraded, remote fetch refused")

const (
	// defaultDegradeAfter is the consecutive-deadline-miss streak that
	// trips the breaker of a deadline-bearing engine.
	defaultDegradeAfter = 8
	// degradedProbeEvery lets one in this many fetches and dirty
	// write-backs through to the fabric while degraded, so recovery is
	// observed without callers electing a prober explicitly — even by a
	// pool whose every resident is dirty, whose misses fetch nothing until
	// a write-back frees a slot. (ForceDegrade lets no write-back through.)
	degradedProbeEvery = 16
)

// Config parameterizes an Engine. The owning runtime builds it: Env and
// RemoteConfig come from the runtime's own Config, as does aifm's
// CompressedBudget (fastswap has no tier); UnitSize is its object or page
// size; Backend and DegradeAfter are the runtime's constants (aifm: TCP
// costs and the default breaker; fastswap: RDMA costs and no breaker).
type Config struct {
	// Env supplies the clock, counters, cost model and histograms.
	Env *sim.Env
	// RemoteConfig locates far memory; when it names no transport the
	// engine runs over an in-process SimLink charging Backend's costs.
	fabric.RemoteConfig
	Backend fabric.Backend
	// UnitSize is the fixed transfer unit in bytes (object or page size).
	UnitSize int
	// DegradeAfter is how many consecutive deadline-missing operations
	// trip the breaker (meaningful only with a positive OpDeadline): zero
	// selects 8, a negative value disables it.
	DegradeAfter int
	// CompressedBudget, when positive, enables the compressed middle tier
	// with this compressed-byte budget.
	CompressedBudget uint64
}

// Engine is the far side of one runtime. Safe for concurrent use; the
// caller guarantees a unit's buffer is stable for the length of a call
// (aifm: an unpublished slot or a locked, unpinned victim; fastswap: the
// mmap_lock).
type Engine struct {
	env       *sim.Env
	lat       *sim.Latencies
	transport fabric.ErrorTransport
	closer    func() error // non-nil only when the engine dialed RemoteAddr
	retries   int          // wire attempts per operation
	budget    *fabric.RetryBudget
	unit      int
	tier      *ctier.Tier // nil when disabled
	wb        *window     // write-behind window; nil unless the transport is a fabric.PushCarrier

	// Overload control, idle when dlBudget is zero.
	dlBudget     uint64 // per-op deadline in clock cycles; 0 = none
	degradeAfter uint32 // consecutive misses before degrading; 0 = never
	dlStreak     atomic.Uint32
	degraded     atomic.Bool
	forced       atomic.Bool
	probeTick    atomic.Uint64 // admits every Nth fetch while degraded
}

// New resolves cfg into a connected engine.
func New(cfg Config) (*Engine, error) {
	transport, closer, err := cfg.Connect()
	if err != nil {
		return nil, err
	}
	if transport == nil {
		transport = fabric.NewSimLink(cfg.Env, cfg.Backend)
	}
	e := &Engine{
		env:       cfg.Env,
		lat:       cfg.Env.Lat(),
		transport: transport,
		closer:    closer,
		retries:   cfg.Retries(),
		budget:    fabric.NewRetryBudget(0, 0),
		unit:      cfg.UnitSize,
		dlBudget:  cfg.OpDeadline,
	}
	if cfg.OpDeadline > 0 && cfg.DegradeAfter >= 0 {
		e.degradeAfter = defaultDegradeAfter
		if cfg.DegradeAfter > 0 {
			e.degradeAfter = uint32(cfg.DegradeAfter)
		}
	}
	if cfg.CompressedBudget > 0 {
		e.tier = ctier.New(ctier.Config{Budget: cfg.CompressedBudget})
	}
	if carrier, ok := transport.(fabric.PushCarrier); ok {
		e.wb = newWindow(carrier, cfg.UnitSize)
	}
	return e, nil
}

// Close pushes what the write-behind window still holds (everything
// evicted is then far; what cannot be pushed now is dropped like the rest
// of local memory), returns the window's and the tier's buffer leases and
// releases the connection the engine itself opened (the RemoteAddr path); a
// caller-provided transport stays open — the caller owns its lifetime.
func (e *Engine) Close() error {
	_ = e.Flush() // the error is the outage's; Close has nobody to keep the copies for
	e.wb.clear()
	e.tier.Clear()
	if e.closer == nil {
		return nil
	}
	return e.closer()
}

// Tier exposes the compressed middle tier, or nil when disabled. The
// governor resizes it under pressure; tests and benchmarks inspect it.
func (e *Engine) Tier() *ctier.Tier { return e.tier }

// Degraded reports whether remote fetches currently fail fast, for either
// cause: the deadline-miss breaker or ForceDegrade.
func (e *Engine) Degraded() bool { return e.degraded.Load() || e.forced.Load() }

// ForceDegrade pins the engine in (or releases it from) degraded mode
// independently of the deadline-miss breaker: the fault hook safety tests
// use to drive the mode that breaker reaches. A successful probe does not
// lift a forced degradation — only ForceDegrade(false) — so no dirty
// write-back is let through as one while it holds.
func (e *Engine) ForceDegrade(on bool) {
	if on && !e.forced.Swap(true) {
		sim.Inc(&e.env.Counters.DegradedEntries)
		return
	}
	if !on {
		e.forced.Store(false)
	}
}

// RegisterObs exposes the breaker state, the retry budget, the tier's
// counters and, when the engine runs over a TCP transport, that
// transport's counters on reg. The Env-wide counters (deadline misses,
// fetch faults) are already on Env.Metrics.
func (e *Engine) RegisterObs(reg *obs.Registry, labels ...obs.Label) {
	if t, ok := e.transport.(*fabric.TCPTransport); ok {
		t.Stats().Register(reg, labels...)
	}
	e.budget.Register(reg, labels...)
	reg.GaugeFunc("trackfm_pool_degraded",
		"1 while the pool is degraded (residents serve, remote fetches fail fast).",
		func() float64 {
			if e.Degraded() {
				return 1
			}
			return 0
		}, labels...)
	reg.GaugeFunc("trackfm_pool_deadline_miss_streak",
		"Consecutive deadline-missing remote operations (resets on any success).",
		func() float64 { return float64(e.dlStreak.Load()) }, labels...)
	reg.GaugeFunc("trackfm_pool_write_behind_parked",
		"Evicted dirty units whose push has not been acknowledged yet (write-behind window depth; 0 over transports that cannot carry pushes).",
		func() float64 { return float64(e.wb.parked()) }, labels...)
	reg.CounterFunc("trackfm_pool_write_behind_forwards_total",
		"Fetches served from a copy still parked in the write-behind window (no round trip).",
		e.wb.forwarded, labels...)
	e.tier.Register(reg, labels...)
}

// deadline starts a fresh per-op deadline, or the zero Deadline when the
// engine runs without a budget.
func (e *Engine) deadline() fabric.Deadline {
	if e.dlBudget == 0 {
		return fabric.Deadline{}
	}
	return fabric.DeadlineAfter(&e.env.Clock, e.dlBudget)
}

// noteOK records a successful remote operation: the miss streak resets and
// an organic degradation lifts (a probe got through).
func (e *Engine) noteOK() {
	if e.dlBudget == 0 {
		return
	}
	e.dlStreak.Store(0)
	e.degraded.CompareAndSwap(true, false)
}

// refused reports whether the degraded engine refuses a fetch, or a dirty
// write-back: all but one in degradedProbeEvery, the probe let through. A
// forced degradation, which no probe lifts, refuses every write-back.
func (e *Engine) refused(writeBack bool) bool {
	if writeBack && e.forced.Load() {
		return true
	}
	return e.Degraded() && e.probeTick.Add(1)%degradedProbeEvery != 0
}

// noteErr classifies a failed remote operation that started at cycle
// start: overload rejects and deadline misses are tallied, a miss extends
// the streak, and a long-enough streak trips the breaker. Reports whether
// err was a deadline miss, which ends the operation — the deadline bounds
// all of its attempts.
func (e *Engine) noteErr(err error, start uint64) bool {
	if errors.Is(err, fabric.ErrOverloaded) {
		sim.Inc(&e.env.Counters.OverloadRejects)
	}
	if !errors.Is(err, fabric.ErrDeadlineExceeded) {
		return false
	}
	sim.Inc(&e.env.Counters.DeadlineMisses)
	if elapsed := e.env.Clock.Cycles() - start; elapsed > e.dlBudget {
		e.lat.DeadlineMiss.Observe(elapsed - e.dlBudget)
	}
	if e.degradeAfter > 0 &&
		e.dlStreak.Add(1) >= e.degradeAfter &&
		e.degraded.CompareAndSwap(false, true) {
		sim.Inc(&e.env.Counters.DegradedEntries)
	}
	return true
}

// again books attempt number attempt of a remote operation begun at cycle
// start, which ended in err (a failure adds one to *faults, unless faults
// is nil), and reports whether the operation is tried again. It is the
// engine's one retry decision — start, push, Flush and Delete all ask it —
// and no layer below re-issues an operation (a TCPTransport resends only
// over a socket the peer closed while it sat idle). The first attempt
// earns the retry budget its deposit unless the server shed it: an
// overload reject is backpressure, not demand. A failed operation is
// re-issued only while it has made fewer than RemoteRetries attempts, did
// not miss its deadline and did not fail permanently, and then only if it
// was shed — re-issued token-free, paced by the transport — or a token can
// be drawn from the budget.
func (e *Engine) again(attempt int, err error, start uint64, faults *uint64) bool {
	shed := errors.Is(err, fabric.ErrOverloaded)
	if attempt == 1 && !shed {
		e.budget.OnRequest()
	}
	if err == nil {
		return false
	}
	if faults != nil {
		sim.Inc(faults)
	}
	if e.noteErr(err, start) || fabric.Permanent(err) || attempt >= e.retries {
		return false
	}
	return shed || e.budget.TryRetry()
}

// Fetch fills dst (one unit) with the bytes stored under key: first by
// probing the compressed tier — a hit decompresses straight into dst,
// touches no fabric and works even while degraded — then the write-behind
// window, which still holds the unit if its push has not been acknowledged
// (likewise no fabric), then over the transport: up to RemoteRetries wire
// attempts inside one deadline, each re-issue paid from the engine's retry
// budget, none after an error the transport marks fabric.Permanent (see
// again). Over a fabric.PushCarrier that exchange
// carries ahead of the fetch every dirty unit parked since the last one.
// Every failed attempt is tallied in Counters.RemoteFetchFaults (and once in
// RemotePushFaults for each push it carried), so injected fault counts
// reconcile exactly with what the runtime observed. dst must not be visible
// to anyone else: a failed attempt may scribble on it. The bool reports that
// the bytes never left local memory — a tier hit or a parked copy — so
// callers keep their remote-fetch accounting honest.
func (e *Engine) Fetch(key uint64, dst []byte) (local bool, err error) {
	pf, err := e.start(key, dst, false)
	return pf.local, err
}

// Prefetch is a speculative fetch begun by StartPrefetch: done already (a tier
// hit, a parked copy, or a transport with nothing to overlap), or waiting for
// its bytes. A small value; hand it to FinishPrefetch exactly once.
type Prefetch struct {
	ticket fabric.Ticket
	key    uint64
	waited uint64 // cycles StartPrefetch took: the first part of what the mutator waits
	local  bool   // served from the tier or the write-behind window
}

// Pending reports whether the bytes are still on their way: dst then
// belongs to the transport until FinishPrefetch returns. A prefetch that is
// not pending has succeeded, and FinishPrefetch only reports where from.
func (pf Prefetch) Pending() bool { return pf.ticket.Pending() }

// StartPrefetch is the speculative flavour of Fetch, split in two so the
// round trip overlaps with the caller's computation:
// the same tier and window probes and degraded refusal, then a fetch started
// on the transport with no deadline (it carries no pushes: the prefetch
// stream is another connection). A start the transport refuses outright is
// re-issued here, under the retry budget, as a demand fetch's attempts are;
// once started, the rest is FinishPrefetch's.
func (e *Engine) StartPrefetch(key uint64, dst []byte) (Prefetch, error) {
	return e.start(key, dst, true)
}

// FinishPrefetch completes a prefetch and reports, as Fetch does, whether the
// bytes never left local memory. A fetch that fails after it started is one
// Counters.RemoteFetchFaults and is not retried: the caller leaves the unit
// far, and recovery belongs to the demand fetch that eventually wants it.
func (e *Engine) FinishPrefetch(pf Prefetch) (local bool, err error) {
	if !pf.Pending() {
		return pf.local, nil
	}
	start := e.env.Clock.Cycles()
	_, err = pf.ticket.Wait()
	e.finished(pf.waited + e.env.Clock.Cycles() - start)
	if err != nil {
		sim.Inc(&e.env.Counters.RemoteFetchFaults)
		e.noteErr(err, start)
		return false, fmt.Errorf("far: prefetch of key %d: %w", pf.key, err)
	}
	e.noteOK()
	return false, nil
}

// finished closes the books on a fetch that went to the transport: the
// RemoteFetch histogram gets the cycles the mutator spent waiting on it
// (for a prefetch, start plus finish — not the computation in between).
func (e *Engine) finished(waited uint64) {
	e.lat.RemoteFetch.Observe(waited)
}

// start is both flavours of fetch up to the point the bytes are asked for:
// a demand fetch (TryFetchUntil under the per-op deadline) returns done or
// failed, a speculative one may return pending.
func (e *Engine) start(key uint64, dst []byte, speculative bool) (Prefetch, error) {
	start := e.env.Clock.Cycles()
	if e.tier.Get(key, dst) {
		e.env.Clock.Advance(e.env.Costs.TierDecompress(e.unit))
		sim.Inc(&e.env.Counters.TierHits)
		e.lat.TierDecompress.Observe(e.env.Clock.Cycles() - start)
		return Prefetch{local: true}, nil
	}
	if e.tier != nil {
		sim.Inc(&e.env.Counters.TierMisses)
	}
	if e.wb.forward(key, dst) {
		return Prefetch{local: true}, nil
	}
	if e.refused(false) {
		e.finished(e.env.Clock.Cycles() - start)
		return Prefetch{}, fmt.Errorf("far: fetch key %d: %w", key, ErrDegraded)
	}
	var dl fabric.Deadline
	if !speculative {
		dl = e.deadline()
	}
	var err error
	attempt := 0
	for {
		attempt++
		var ticket fabric.Ticket
		if speculative {
			ticket, err = fabric.StartFetch(e.transport, key, dst)
		} else if b := e.wb.claim(); b != nil {
			sent := e.env.Clock.Cycles()
			_, err = e.wb.carrier.TryFetchAfterPushes(b.pushes[:b.n], key, dst, dl)
			e.settle(b, err, sent)
		} else {
			_, err = e.transport.TryFetchUntil(key, dst, dl)
		}
		if e.again(attempt, err, start, &e.env.Counters.RemoteFetchFaults) {
			continue
		}
		if err != nil {
			break
		}
		waited := e.env.Clock.Cycles() - start
		if ticket.Pending() {
			return Prefetch{ticket: ticket, key: key, waited: waited}, nil
		}
		e.noteOK()
		e.finished(waited)
		return Prefetch{}, nil
	}
	e.finished(e.env.Clock.Cycles() - start)
	return Prefetch{}, fmt.Errorf("far: fetch key %d after %d attempts: %w", key, attempt, err)
}

// Evict makes the unit in src droppable from local memory and reports
// whether it now is: a dirty unit is written back first — refused while
// degraded, but for the probes (see refused) — then a compressed copy is parked in the tier: a clean
// unit's bytes are those it was fetched with, so when it was promoted from
// the tier, the block the tier kept is re-admitted instead of encoded.
// Written back means pushed, re-issued inside one deadline under the retry
// budget with failed attempts tallied in Counters.RemotePushFaults; or, over a
// fabric.PushCarrier, copied into the write-behind window, from where the
// next exchange carries it (a full window first flushes itself: the pushes
// it holds, as one exchange). The tier is write-through: the far copy is
// current or its push is parked in the window, so the tier never holds the
// only copy. A refusal is counted in Counters.EvictionStalls and the caller
// keeps the unit resident — it is the only copy of the data.
func (e *Engine) Evict(key uint64, src []byte, dirty bool) bool {
	if !dirty && e.tier == nil {
		return true
	}
	if dirty && (e.refused(true) || !e.writeBack(key, src)) {
		sim.Inc(&e.env.Counters.EvictionStalls)
		return false
	}
	if e.tier != nil {
		// The model charges the encode either way, so a clean unit costs
		// the same cycles whether the tier re-admits its held copy (the
		// unit is unchanged since its promotion: the copy is the encoding)
		// or encodes it.
		e.env.Clock.Advance(e.env.Costs.TierCompress(e.unit))
		var admitted bool
		if dirty {
			admitted = e.tier.Put(key, src)
		} else {
			admitted = e.tier.Readmit(key, src)
		}
		if admitted {
			sim.Inc(&e.env.Counters.TierDemotes)
		}
	}
	return true
}

// writeBack makes sure the dirty unit in src will survive being dropped
// from local memory, and reports whether it will.
func (e *Engine) writeBack(key uint64, src []byte) bool {
	if e.wb == nil {
		return e.push(key, src) == nil
	}
	if e.wb.park(key, src) {
		return true
	}
	// Full, and no fetch came by to carry it. Whatever the flush achieves,
	// the second try decides: during an outage, or while other callers'
	// exchanges hold every entry, the window stays full and the unit stays
	// with the caller.
	_ = e.Flush()
	return e.wb.park(key, src)
}

func (e *Engine) push(key uint64, src []byte) (err error) {
	start := e.env.Clock.Cycles()
	defer func() { e.lat.RemotePush.Observe(e.env.Clock.Cycles() - start) }()
	dl := e.deadline()
	for attempt := 1; ; attempt++ {
		err = e.transport.TryPushUntil(key, src, dl)
		if !e.again(attempt, err, start, &e.env.Counters.RemotePushFaults) {
			break
		}
	}
	if err == nil {
		e.noteOK()
	}
	return err
}

// Flush pushes what the write-behind window holds, as one exchange,
// re-issued inside one deadline under the retry budget like a push of one
// unit. When it returns nil every unit evicted before the call is on the
// far node, unless another caller's exchange is carrying it there at this
// moment; on error the copies stay parked — still fetchable, and sent
// again with the next exchange. Over a transport with no window there is
// nothing to do.
func (e *Engine) Flush() error {
	start := e.env.Clock.Cycles()
	dl := e.deadline()
	failed := 0
	// A failed batch is parked again and claimed again; an acknowledged one
	// can uncover copies that waited behind it.
	for b := e.wb.claim(); b != nil; b = e.wb.claim() {
		sent := e.env.Clock.Cycles()
		err := e.wb.carrier.TryPushAll(b.pushes[:b.n], dl)
		e.settle(b, err, sent)
		again := e.again(failed+1, err, start, nil) // settle tallied the batch's push faults
		if err == nil {
			e.noteOK()
			continue
		}
		if failed++; !again {
			return fmt.Errorf("far: flush of the write-behind window: %w", err)
		}
	}
	return nil
}

// settle ends the exchange that carried b, begun at cycle sent: every push
// in it was acknowledged, or every one is a push fault. The exchange's own
// request, and noteOK/noteErr for the exchange as a whole, are the
// caller's: one failed exchange is one deadline miss or overload reject,
// however many pushes rode in it.
func (e *Engine) settle(b *wbBatch, err error, sent uint64) {
	elapsed := e.env.Clock.Cycles() - sent
	for i := 0; i < b.n; i++ {
		e.lat.RemotePush.Observe(elapsed)
	}
	if err != nil {
		sim.Add(&e.env.Counters.RemotePushFaults, uint64(b.n))
	}
	e.wb.settle(b, err == nil)
}

// Delete drops key from the tier, the write-behind window and the far
// node, and reports whether the far node acknowledged it. Failures are
// re-issued like any operation's (see again) and tallied with the push
// faults. A delete that was not acknowledged may have left the last blob
// pushed under key on the far node, where the next fetch of key finds it:
// the caller must push over it before it fetches key again.
func (e *Engine) Delete(key uint64) bool {
	e.tier.Delete(key) // a freed unit must not be revivable
	e.wb.drop(key)
	start := e.env.Clock.Cycles()
	for attempt := 1; ; attempt++ {
		err := e.transport.TryDeleteUntil(key, fabric.Deadline{})
		if !e.again(attempt, err, start, &e.env.Counters.RemotePushFaults) {
			return err == nil
		}
	}
}
