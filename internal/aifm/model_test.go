package aifm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/far"
	"trackfm/internal/modeltest"
	"trackfm/internal/sim"
)

// The pool's adapter to the model harness (internal/modeltest): seeded op
// traces run on a Pool and on the flat heap side by side. Every read must
// match the heap; after every op of a serial trace the pool's bookkeeping
// must hold (check), and at quiesce the heap, the far copies, the fetch
// claims and the buffer leases must agree with it (quiesce). An op that
// fails with a typed error must leave no trace (step). A new pool feature
// adds its op to poolModel and its invariant to check or quiesce.

// Every config's pool: 96 objects of 256 B over 16 slots, two wire attempts
// an op. The configs differ in the compressed tier's starting budget, in
// the harness's fault schedule and in its world: the last three run over a
// real server on loopback, fault-free, faulty over a plain store kept across
// restarts, and faulty over a durable store that crashes and recovers.
const modelObjSize, modelObjs, modelSlots = 256, 96, 16

type modelConfig struct {
	name  string
	tier  uint64
	sched modeltest.Schedule
}

var modelConfigs = []modelConfig{
	{"tier-off", 0, modeltest.Schedules["fault-free"]},
	{"tier-small", 4 << 10, modeltest.Schedules["fault-free"]},
	{"tier-large", 1 << 20, modeltest.Schedules["fault-free"]},
	{"faults", 0, modeltest.Schedules["faults"]},
	{"faults-tier-small", 4 << 10, modeltest.Schedules["faults"]},
	{"faults-deadline", 0, modeltest.Schedules["faults-deadline"]},
	{"loopback", 0, modeltest.Schedules["fault-free"].OverLoopback(false)},
	{"loopback-faults", 0, modeltest.Schedules["faults"].OverLoopback(false)},
	{"loopback-faults-durable", 0, modeltest.Schedules["faults"].OverLoopback(true)},
}

// simConfigs are the configs over a SimLink, the ones FuzzModel runs: a
// loopback trace builds a server for each input.
var simConfigs = modelConfigs[:6]

// modelCfg returns the config named name: tests pick configs by name, so a
// config added or moved changes what no test covers.
func modelCfg(name string) modelConfig {
	return modelConfigs[slices.IndexFunc(modelConfigs, func(c modelConfig) bool { return c.name == name })]
}

// poolModel's ops: access, word and pin move bytes, and bit 0 of val makes
// them writes (a pin reads or writes its window in place and unpins it).
// Bit 0 of val also says whether degrade (Far().ForceDegrade) turns its
// mode on or off. idle advances the clock val cycles, or past the thrash
// window, as an application computing does, and ratio sets the thrash
// ratio to the float64 whose bits are val, as if the detector had settled
// there; random traces draw neither, for after idle no refetch is a
// re-fault and the governor would hardly ever throttle.
var poolModel = modeltest.Model{
	Pkg:     "internal/aifm",
	Ops:     []string{"access", "word", "pin", "prefetch", "free", "resize", "govern", "evacuate-all", "reset-stats", "degrade", "idle", "ratio"},
	Weights: []int{23, 12, 8, 8, 4, 2, 4, 1, 1, 1, 0, 0},
	Draw: func(src modeltest.Source, o *modeltest.Op) {
		o.ID, o.Val = src.Intn(modelObjs), uint64(src.Intn(1<<16))
		o.Off = src.Intn(modelObjSize - 7) // a word fits
		if o.N = 8; o.Kind != "word" {
			o.N = 1 + src.Intn(modelObjSize-o.Off)
		}
	},
	Len: 4000, Heap: modelObjs * modelObjSize, Backend: fabric.BackendTCP, Retries: 2,
}

// movesBytes reports whether o is an access, a word or a pin.
func movesBytes(o modeltest.Op) bool {
	return o.Kind == "access" || o.Kind == "word" || o.Kind == "pin"
}

type model struct {
	r    *modeltest.Rig
	p    *Pool
	tier uint64

	// A serial trace's record: the budget Resize last accepted and the
	// bound check holds residents to, whether any op stalled an eviction,
	// whether the budget ever grew, whether anything could have moved the
	// thrash detector (an eviction, whose ghost makes a re-fault, or a
	// ratio op), and the governor's state as refGov predicts it.
	serial        bool
	budget, bound int
	everStalled   bool
	grown         bool
	churned       bool
	gov           refGov
}

// refGov is the governor Pool.Govern must be, written out again with its
// own constants, so a changed constant in the pool shows: a decision at
// most every eighth of the thrash window; a reading of 0.35 or more
// throttles, and three in a row at or below a third of that recover.
type refGov struct {
	last, throttles uint64
	calm            int
	throttled       bool
}

// tick is one Govern call at cycle now that reads ratio.
func (g *refGov) tick(now uint64, ratio float64, window uint64) {
	if now-g.last < window/8 {
		return
	}
	g.last = now
	switch {
	case !g.throttled:
		if g.throttled = ratio >= 0.35; g.throttled {
			g.throttles++
		}
	case ratio > 0.35/3:
		g.calm = 0
	default:
		if g.calm++; g.calm == 3 {
			g.throttled, g.calm = false, 0
		}
	}
}

// newModel builds a pool of cfg over r, and notes the failures every
// config owes: both client protocols, Access and Pin, reading and writing,
// refused by a degraded engine, and on a faulty SimLink config failed by
// the link. Over loopback a cut of an idle connection is the transport's
// to resend, so one fault seldom fails an op, and a prefetch's fetch fails
// ops after it started: the loopback world owes those states instead.
func newModel(r *modeltest.Rig, cfg modelConfig) (*model, error) {
	p, err := NewPool(Config{
		Env:              r.Env,
		RemoteConfig:     r.Remote(),
		ObjectSize:       modelObjSize,
		HeapSize:         modelObjs * modelObjSize,
		LocalBudget:      modelSlots * modelObjSize,
		CompressedBudget: cfg.tier,
	})
	if err == nil {
		p.Far().RegisterObs(r.Obs)
	}
	for _, kind := range []string{"access", "pin"} {
		for _, write := range []bool{false, true} {
			r.Note(failedState(kind, write, far.ErrDegraded), false, true)
			r.Note(failedState(kind, write, fabric.ErrRemoteUnavailable), false, r.Faulty() && r.Far != nil)
		}
	}
	return &model{r: r, p: p, tier: cfg.tier, budget: modelSlots, bound: modelSlots}, err
}

func (m *model) obj(id ObjectID) []byte {
	return m.r.Mem[int(id)*modelObjSize : int(id+1)*modelObjSize]
}

// resizeSlots is the budget a resize asks for: up to the starting one, or
// 0 or one slot past it, which Resize must refuse.
func resizeSlots(o modeltest.Op) int { return int(o.Val) % (modelSlots + 2) }

// typed returns the typed error err wraps, or nil: the errors an op may
// fail with, any other being a bug. A memory node that refuses writes
// fails the pushes a fetch carries, never the fetch.
func typed(err error) error {
	for _, t := range []error{fabric.ErrRemoteUnavailable, fabric.ErrIntegrity, fabric.ErrDeadlineExceeded, fabric.ErrOverloaded, far.ErrDegraded} {
		if errors.Is(err, t) {
			return t
		}
	}
	return nil
}

// step applies o to the pool and, once it succeeded, to the heap, and
// checks what the pool read. An access, word or pin that fails with a
// typed error (failure) must leave no trace: the heap unwritten, the
// caller's buffer as it was — a read's starts from a non-zero fill, so a
// zero scribble shows — and no window lent. Workers may step one model at
// once on disjoint objects.
func (m *model) step(o modeltest.Op) (failure, err error) {
	p, id, write := m.p, ObjectID(o.ID), o.Val&1 == 1 && movesBytes(o)
	obj, at := m.obj(id), o.ID*modelObjSize+o.Off
	next := bytes.Clone(obj) // the object once o has run
	want, buf := next[o.Off:o.Off+o.N], bytes.Repeat([]byte{0xEE}, o.N)
	if write {
		for i := range want {
			want[i] = byte(o.Val + uint64(i)*(o.Val>>8|1))
		}
		copy(buf, want)
	}
	sent := bytes.Clone(buf)
	switch o.Kind {
	case "access":
		failure = p.Access(id, uint64(o.Off), buf, write)
	case "word":
		var got uint64
		if got, failure = p.Word(id, uint64(o.Off), binary.LittleEndian.Uint64(buf), write); failure == nil {
			binary.LittleEndian.PutUint64(buf, got)
		}
	case "pin":
		var win []byte
		if win, _, failure = p.Pin(id, write); win != nil {
			if write {
				copy(win[o.Off:], want)
			}
			err = m.r.Differ(o.ID*modelObjSize, win, next)
			copy(buf, win[o.Off:])
			p.Unpin(id)
		}
		if failure != nil && win != nil {
			err = errors.Join(err, fmt.Errorf("object %d: a failed Pin lent a window", id))
		}
	case "prefetch":
		p.Prefetch(id)
	case "free":
		p.Free(id)
		m.r.Deleted(1)
		clear(obj)
	case "resize":
		n := resizeSlots(o)
		if err := p.Resize(uint64(n * modelObjSize)); (err == nil) != (n >= 1 && n <= p.MaxSlots()) {
			return nil, fmt.Errorf("a resize to %d slots returned %v", n, err)
		}
	case "govern":
		p.Govern()
	case "evacuate-all":
		p.EvacuateAll()
	case "idle":
		p.env.Clock.Advance(cmp.Or(o.Val, p.thrashWindow+1))
	case "ratio":
		p.thrashEWMA.Store(o.Val)
	case "reset-stats":
		m.r.ResetStats()
	case "degrade":
		p.Far().ForceDegrade(o.Val&1 == 1)
	}
	switch {
	case failure != nil && typed(failure) == nil:
		return nil, errors.Join(err, failure)
	case failure != nil && !bytes.Equal(buf, sent):
		return failure, errors.Join(err, fmt.Errorf("object %d: failed with %w, and left % x in a buffer that held % x", id, failure, buf, sent))
	case failure != nil || !movesBytes(o):
		return failure, err
	}
	copy(obj, next)
	return nil, errors.Join(err, m.r.Differ(at, buf, want))
}

// Check holds the pool's bookkeeping to what it summarizes, between ops:
// every slot is owned, free, in the reserve, retired or awaiting a
// prefetch still in flight, exactly once; the
// slot owners and the metadata table name the same residents, as many as
// the resident count, within bound slots plus those borrowed from the
// reserve floor, which only a lap that stalled on every resident borrows.
// The governor's state and throttle count are refGov's in a serial trace;
// throttled, the pool
// prefetches nothing of its own and its tier has half its budget. No more
// fetches re-fault than there are, and the thrash ratio is a fraction: 0,
// with no re-fault, until something churned. The
// bound is the budget, but a resize that stalled on a refused write-back
// keeps the bound before it, if larger: the shrink converges lazily.
func (m *model) Check() error {
	p, tier := m.p, m.p.Far().Tier()
	res, owned, present := p.ResidentSlots(), 0, 0 // res before Held: an eviction drops the held copy first
	seen := make([]int, len(p.slotOwner))
	for slot := range p.slotOwner {
		if id := p.ownerAt(slot); id != noOwner {
			if meta := p.Meta(id); !meta.Present() || meta.DataAddr() != uint64(slot*modelObjSize) {
				return fmt.Errorf("slot %d's owner %d has metadata %#x", slot, id, uint64(meta))
			}
			owned++
			seen[slot]++
		}
	}
	p.freeMu.Lock()
	for _, slot := range slices.Concat(p.freeSlots, p.reserveFree, p.retired) {
		seen[slot]++
	}
	borrowed := p.reserveFloor - len(p.reserveFree)
	p.freeMu.Unlock()
	p.pendMu.Lock()
	for _, pp := range p.pending {
		seen[pp.slot]++
		if p.Meta(pp.id).Present() {
			p.pendMu.Unlock()
			return fmt.Errorf("object %d is present while its prefetch is in flight", pp.id)
		}
	}
	p.pendMu.Unlock()
	if slot := slices.IndexFunc(seen, func(n int) bool { return n != 1 }); slot >= 0 {
		return fmt.Errorf("slot %d is owned, free, in the reserve, retired or awaiting a prefetch %d times", slot, seen[slot])
	}
	for id := range p.table {
		if p.Meta(ObjectID(id)).Present() {
			present++
		}
	}
	c := &p.env.Counters
	switch {
	case owned != res || present != res:
		return fmt.Errorf("%d slots owned and %d objects present, %d resident", owned, present, res)
	case p.LocalBytes() > uint64((m.bound+borrowed)*modelObjSize):
		return fmt.Errorf("%d bytes resident over a bound of %d slots and %d borrowed", p.LocalBytes(), m.bound, borrowed)
	case borrowed > 0 && !m.everStalled:
		return fmt.Errorf("%d reserve slots borrowed, and no eviction ever stalled", borrowed)
	case p.cold.Load() != recountCold(p):
		return fmt.Errorf("cold count %d, table holds %d", p.cold.Load(), recountCold(p))
	case p.PinnedObjects() != 0:
		return fmt.Errorf("%d objects pinned", p.PinnedObjects())
	case tier.Held() > res:
		return fmt.Errorf("%d held tier copies over %d residents", tier.Held(), res)
	case tier.HeldBytes() > tier.Budget():
		return fmt.Errorf("held tier copies of %d bytes over a budget of %d", tier.HeldBytes(), tier.Budget())
	case m.serial && (p.Throttled() != m.gov.throttled || p.gov.throttles.Load() != m.gov.throttles):
		return fmt.Errorf("throttled %t after %d throttles, the reference governor says %t after %d",
			p.Throttled(), p.gov.throttles.Load(), m.gov.throttled, m.gov.throttles)
	case p.Throttled() == (p.PrefetchDepth() > 0):
		return fmt.Errorf("throttled %t with prefetch depth %d", p.Throttled(), p.PrefetchDepth())
	case p.Throttled() && tier.Budget() != m.tier/2 || !p.Throttled() && tier.Budget() != m.tier:
		return fmt.Errorf("throttled %t with a tier budget of %d, configured %d", p.Throttled(), tier.Budget(), m.tier)
	case sim.Load(&c.Refaults) > sim.Load(&c.RemoteFetches) || !m.churned && sim.Load(&c.Refaults) > 0:
		return fmt.Errorf("%d re-faults in %d remote fetches, churned %t", sim.Load(&c.Refaults), sim.Load(&c.RemoteFetches), m.churned)
	case !(p.ThrashRatio() >= 0 && p.ThrashRatio() <= 1) || !m.churned && p.ThrashRatio() != 0:
		return fmt.Errorf("thrash ratio %v, churned %t", p.ThrashRatio(), m.churned)
	case p.MaxSlots() != modelSlots:
		return fmt.Errorf("%d slots at most, built with %d", p.MaxSlots(), modelSlots)
	}
	return nil
}

// drain lifts a forced degradation and evacuates until nothing is
// resident: a write-back refused during an outage goes through once it
// ends.
func (m *model) drain() error {
	m.p.Far().ForceDegrade(false)
	return m.r.Drain(m.p.EvacuateAll, m.p.ResidentSlots)
}

// Quiesce checks what must hold once no op runs: the heap reads back as
// the rig's, Check holds on the residents the read-back leaves and again
// once they are drained, and the far copies read as the heap; no fetch
// claim, pending prefetch or buffer lease is left once the pool closes.
func (m *model) Quiesce() error {
	p, buf := m.p, make([]byte, modelObjSize)
	p.Far().ForceDegrade(false)
	stalls, evictions := sim.Load(&p.env.Counters.EvictionStalls), sim.Load(&p.env.Counters.Evacuations)
	var err error
	for id := ObjectID(0); id < modelObjs; id++ {
		err = errors.Join(err, m.r.Retry(func() error { return p.Access(id, 0, buf, false) }), m.r.Differ(int(id)*modelObjSize, buf, m.obj(id)))
	}
	m.everStalled = m.everStalled || sim.Load(&p.env.Counters.EvictionStalls) > stalls
	m.churned = m.churned || sim.Load(&p.env.Counters.Evacuations) > evictions
	err = errors.Join(err, m.Check(), m.drain(), m.Check(), m.r.FarCopies(modelObjSize))
	for i := range p.stripes {
		if n := len(p.stripes[i].inflight); n != 0 {
			err = errors.Join(err, fmt.Errorf("stripe %d holds %d fetch claims", i, n))
		}
	}
	if n := p.PendingPrefetches(); n != 0 {
		err = errors.Join(err, fmt.Errorf("%d prefetches pending", n))
	}
	p.Close()
	return errors.Join(err, m.r.LeasesHome())
}

// Step is one op of a serial trace: step, then what the op must have done
// to the budget, the governor and the admission gate, and the states it
// reached.
func (m *model) Step(o modeltest.Op) error {
	p, c, r, id := m.p, &m.p.env.Counters, m.r, ObjectID(o.ID)
	meta, was, degraded, throttled, inflight := p.Meta(id), m.budget, p.Far().Degraded(), p.Throttled(), prefetched(p, id) && !p.Meta(id).Present()
	stalls, fetchFaults, corrupt := sim.Load(&c.EvictionStalls), sim.Load(&c.RemoteFetchFaults), r.Corruptions()
	evictions, skipped, resizes, free := sim.Load(&c.Evacuations), sim.Load(&c.PrefetchSkippedPressure), p.Resizes(), p.freeCount()
	// A fetch, refused or not, is timed; so is each prefetch still in flight
	// that the op finishes.
	fetches, cycles, ratio := p.lat.RemoteFetch.Snapshot().Count(), p.env.Clock.Cycles(), p.ThrashRatio()
	critical, inWindow, hits, shared := sim.Load(&c.CriticalFetches), uint64(p.PendingPrefetches()), sim.Load(&c.PrefetchHits), sim.Load(&c.SingleflightShared)
	// The throttled pool's admission gate: a prefetch that finds more
	// than 0.75 of the budget in use is skipped (a degraded engine's,
	// before it gets there). One the gate admits, of an object neither
	// resident nor freed, takes a free slot if there is one.
	gated := o.Kind == "prefetch" && throttled && !degraded && 1-float64(free)/float64(p.NumSlots()) > 0.75
	failure, err := m.step(o)
	if movesBytes(o) {
		err = errors.Join(err, r.Served(failure, meta.Present(), !meta.Present() && meta != 0 && meta != metaFreed && !inflight))
	}
	stalled := sim.Load(&c.EvictionStalls) > stalls
	m.everStalled = m.everStalled || stalled
	switch o.Kind {
	case "resize":
		accepted := uint64(0)
		if n := resizeSlots(o); n >= 1 && n <= modelSlots {
			m.budget, accepted = n, 1
			if !stalled || m.budget > m.bound {
				m.bound = m.budget
			}
		}
		if p.NumSlots() != m.budget || p.Resizes() != resizes+accepted {
			err = errors.Join(err, fmt.Errorf("a budget of %d slots after %d resizes, want %d after %d", p.NumSlots(), p.Resizes(), m.budget, resizes+accepted))
		} else if accepted == 1 && !stalled && p.CurrentSlots() != m.budget {
			err = errors.Join(err, fmt.Errorf("%d slots circulate after a resize to %d that did not stall", p.CurrentSlots(), m.budget))
		}
	case "govern":
		m.gov.tick(cycles, ratio, p.thrashWindow)
	}
	now, landed := p.Meta(id), prefetched(p, id)
	if failure != nil && now != meta {
		err = errors.Join(err, fmt.Errorf("the failure left metadata %#x, was %#x", uint64(now), uint64(meta)))
	} else if o.Kind == "prefetch" && degraded && !meta.Present() && !inflight && landed {
		err = errors.Join(err, fmt.Errorf("object %d prefetched while degraded", id))
	} else if gated && (now != meta || sim.Load(&c.Evacuations) != evictions || sim.Load(&c.PrefetchSkippedPressure) != skipped+1) {
		err = errors.Join(err, fmt.Errorf("a prefetch of object %d past the throttled pool's high-water mark was not skipped", id))
	} else if !gated && sim.Load(&c.PrefetchSkippedPressure) > skipped {
		err = errors.Join(err, fmt.Errorf("a %s counted a prefetch skipped under pressure", o.Kind))
	} else if (movesBytes(o) || o.Kind == "prefetch") && free > 0 && sim.Load(&c.Evacuations) > evictions {
		err = errors.Join(err, fmt.Errorf("%s evicted with %d slots free", o.Kind, free))
	} else if movesBytes(o) && (meta == 0 || meta == metaFreed) && (sim.Load(&c.CriticalFetches) > critical || p.lat.RemoteFetch.Snapshot().Count() > fetches+inWindow) {
		err = errors.Join(err, fmt.Errorf("the first touch of object %d, metadata %#x, fetched it", id, uint64(meta)))
	} else if o.Kind == "prefetch" && !gated && !degraded && free > 0 && !meta.Present() && meta != metaFreed && !landed && sim.Load(&c.RemoteFetchFaults) == fetchFaults {
		err = errors.Join(err, fmt.Errorf("a prefetch of object %d, with %d slots free and no fetch failed, installed nothing", id, free))
	}
	// A demand access that finds its object's prefetch in flight takes it
	// over, a prefetch hit, or, if that fetch failed, fetches the object
	// itself; a resize, an evacuation or a free settles every prefetch it
	// meets first.
	tookOver := movesBytes(o) && inflight && failure == nil
	switch faulted := sim.Load(&c.RemoteFetchFaults) > fetchFaults; {
	case tookOver && !faulted && (sim.Load(&c.CriticalFetches) != critical || sim.Load(&c.PrefetchHits) == hits || sim.Load(&c.SingleflightShared) != shared):
		err = errors.Join(err, fmt.Errorf("a %s of object %d took over its prefetch in flight as %d critical fetches and %d prefetch hits", o.Kind, id, sim.Load(&c.CriticalFetches)-critical, sim.Load(&c.PrefetchHits)-hits))
	case tookOver && faulted && sim.Load(&c.CriticalFetches) == critical && !slices.Contains(pendingIDs(p), id):
		err = errors.Join(err, fmt.Errorf("a %s of object %d behind its failed prefetch fetched nothing", o.Kind, id))
	case (o.Kind == "resize" && p.Resizes() > resizes || o.Kind == "evacuate-all") && p.PendingPrefetches() != 0:
		err = errors.Join(err, fmt.Errorf("a %s left %d prefetches in flight", o.Kind, p.PendingPrefetches()))
	case o.Kind == "free" && (landed || now != 0 && now != metaFreed):
		err = errors.Join(err, fmt.Errorf("freed object %d has metadata %#x, in flight %t", id, uint64(now), landed))
	}
	r.Note("demand took over a prefetch in flight", tookOver && sim.Load(&c.RemoteFetchFaults) == fetchFaults, false) // for a Case
	r.Note("demand fetched behind a failed prefetch", tookOver && sim.Load(&c.RemoteFetchFaults) > fetchFaults, false)
	r.Note("settled prefetches in flight", inWindow > 0 && (o.Kind == "resize" && p.Resizes() > resizes || o.Kind == "evacuate-all" || o.Kind == "free" && inflight), false)
	// A free whose delete the far node acknowledged leaves it no copy.
	if o.Kind == "free" && now == 0 {
		if found, perr := r.Peek(uint64(id), make([]byte, modelObjSize)); found || perr != nil {
			err = errors.Join(err, perr, fmt.Errorf("object %d freed, its delete acknowledged, and the far node holds it (%t)", id, found))
		}
	}
	if failure != nil {
		r.Note(failedState(o.Kind, o.Val&1 == 1, typed(failure)), true, true)
	}
	m.grown = m.grown || m.budget > was
	m.churned = m.churned || sim.Load(&c.Evacuations) > evictions || o.Kind == "ratio"
	// A tier that holds every object serves every refetch: no remote
	// fetch, so no thrash sample, and the governor never throttles.
	absorbs := m.tier >= modelObjs*modelObjSize
	for state, reached := range map[string]bool{
		"some cold":                    p.cold.Load() > 0,
		"residents but none cold":      p.cold.Load() == 0 && p.ResidentSlots() > 0,
		"prefetch hit":                 sim.Load(&c.PrefetchHits) > 0,
		"shrink":                       m.budget < was,
		"grow":                         m.budget > was,
		"resize to 0 slots refused":    o.Kind == "resize" && resizeSlots(o) == 0,
		"resize past the pool refused": o.Kind == "resize" && resizeSlots(o) > modelSlots,
		"a regrown budget filled":      m.grown && p.ResidentSlots() == m.budget,
		"first touch":                  movesBytes(o) && failure == nil && meta == 0,
		"free of a resident":           o.Kind == "free" && meta.Present(),
		"free of an evicted object":    o.Kind == "free" && meta != 0 && !meta.Present(),
		"eviction stall":               stalled,
		"degraded refusal":             errors.Is(failure, far.ErrDegraded) && p.lat.RemoteFetch.Snapshot().Count() == fetches, // no slot, so no fetch
		"prefetch while degraded":      o.Kind == "prefetch" && degraded && !meta.Present(),
	} {
		r.Note(state, reached, true)
	}
	r.Note("tier hit", sim.Load(&c.TierHits) > 0, m.tier > 0)
	r.Note("failed prefetch", o.Kind == "prefetch" && sim.Load(&c.RemoteFetchFaults) > fetchFaults && !prefetched(p, id), r.Faulty() && r.Far != nil)
	r.Note("corruption healed", failure == nil && r.Corruptions() > corrupt, r.Faulty())
	r.Note("thrash ratio at least 0.5", p.ThrashRatio() >= 0.5, false) // for a Case
	r.Note("governor throttled", p.Throttled(), !absorbs)
	r.Note("governor recovered", o.Kind == "govern" && throttled && !p.Throttled(), !absorbs)
	r.Note("prefetch skipped under pressure", gated, !absorbs)
	r.Note("prefetch admitted while throttled", o.Kind == "prefetch" && throttled && !meta.Present() && !inflight && landed, !absorbs)
	return err
}

// prefetched reports whether object id is resident, or on its way in: a
// prefetch over a pipelined stream waits in the pending window.
func prefetched(p *Pool, id ObjectID) bool {
	return p.Meta(id).Present() || slices.Contains(pendingIDs(p), id)
}

// pendingIDs lists the objects whose prefetches are in flight, oldest first.
func pendingIDs(p *Pool) []ObjectID {
	p.pendMu.Lock()
	defer p.pendMu.Unlock()
	ids := make([]ObjectID, 0, len(p.pending))
	for _, pp := range p.pending {
		ids = append(ids, pp.id)
	}
	return ids
}

// failedState names the state an op of kind reached by failing with class.
func failedState(kind string, write bool, class error) string {
	return fmt.Sprintf("failed %s (write %t): %v", kind, write, class)
}

// op is a directed trace's op on object id: 8 bytes at offset 0, written
// when val is odd.
func op(kind string, id ObjectID, val uint64) modeltest.Op {
	return modeltest.Op{Kind: kind, ID: int(id), N: 8, Val: val}
}

// directedTraces are the hand-built traces of TestModel, for the states a
// random trace reaches only by luck.
func directedTraces() map[string][]modeltest.Op {
	// Laps of writes over twice as many objects as there are slots, the
	// governor ticked after each, refetch what was evicted moments ago:
	// the governor throttles. Whole objects are written, with a pattern LZ
	// cannot shrink, so a small tier holds few. Full, the throttled pool
	// skips a prefetch; emptied, it admits one. Then each round computes
	// past the thrash window, refetches and ticks, until calm readings
	// recover it.
	var gov []modeltest.Op
	for lap := range 8 {
		for id := range ObjectID(2 * modelSlots) {
			w := op("access", id, uint64(id)<<9|uint64(lap)<<8|1)
			w.N = modelObjSize
			gov = append(gov, w, op("govern", 0, 0))
		}
	}
	gov = append(gov, op("prefetch", 0, 0), op("evacuate-all", 0, 0), op("prefetch", 1, 0))
	for r := range 300 {
		gov = append(gov, op("idle", 0, 0), op("access", ObjectID(r%(2*modelSlots)), 0), op("govern", 0, 0))
	}
	// Forced degraded, writes to fresh objects fill the 16 slots, then the
	// 16-slot reserve floor (every dirty write-back refused), and the 33rd
	// finds no slot; so does a pin.
	degrade := []modeltest.Op{op("degrade", 0, 1)}
	for id := range ObjectID(2*modelSlots + 1) {
		degrade = append(degrade, op("access", id, 1))
	}
	degrade = append(degrade, op("pin", 2*modelSlots+1, 0), op("degrade", 0, 0))
	return map[string][]modeltest.Op{"governor": gov, "degraded refusal": degrade}
}

// serial builds the Runtime of a serial trace on cfg.
func serial(cfg modelConfig) func(*modeltest.Rig) (modeltest.Runtime, error) {
	return func(r *modeltest.Rig) (modeltest.Runtime, error) {
		m, err := newModel(r, cfg)
		m.serial = true
		return m, err
	}
}

// TestModel runs the harness's seeded traces and the directed ones on each
// config.
func TestModel(t *testing.T) {
	for _, cfg := range modelConfigs {
		t.Run(cfg.name, func(t *testing.T) { poolModel.Test(t, cfg.sched, serial(cfg), directedTraces()) })
	}
}

// poolCase runs ops on the serial model of the config named cfg, which
// must reach states: a test of one feature that the model's checks hold,
// kept under its name so that a failure names the feature.
func poolCase(t *testing.T, cfg string, ops []modeltest.Op, states ...string) {
	poolModel.Case(t, modelCfg(cfg).sched, serial(modelCfg(cfg)), ops, states...)
}

// Resize refuses a budget of 0 slots and one past the pool, leaving the
// budget and the resize count as they were (Step).
func TestResizeValidation(t *testing.T) {
	poolCase(t, "tier-off", poolModel.Trace(sim.NewRNG(9), poolModel.Len), "resize to 0 slots refused", "resize past the pool refused")
}

// A shrink evicts down to the budget (Check's bound after every op), a
// resize that did not stall leaves CurrentSlots at the budget and counts
// once (Step), a grow puts the retired slots back to be filled, and no
// byte is lost across the squeeze (every read, and quiesce's read-back).
func TestResizeShrinkEvictsAndGrowReactivates(t *testing.T) {
	poolCase(t, "tier-off", poolModel.Trace(sim.NewRNG(10), poolModel.Len), "shrink", "grow", "a regrown budget filled")
}

// A free gives its slot back (Check's slot census), the object reads as
// zeros after it (every read), and once the far node acknowledged the
// delete it holds no copy (Step, over a SimLink and over loopback).
func TestFreeReleasesSlotAndRemote(t *testing.T) {
	for _, cfg := range []string{"tier-off", "loopback"} {
		t.Run(cfg, func(t *testing.T) {
			poolCase(t, cfg, poolModel.Trace(sim.NewRNG(11), poolModel.Len), "free of a resident", "free of an evicted object")
		})
	}
}

// Over loopback a demand access to an object whose prefetch is in flight
// takes it over, a prefetch hit and no critical fetch (Step), and the
// object is not present before its bytes arrive (Check).
func TestDemandTakesOverPendingPrefetch(t *testing.T) {
	poolCase(t, "loopback", []modeltest.Op{op("access", 3, 1), op("evacuate-all", 0, 0), op("prefetch", 3, 0), op("prefetch", 3, 0), op("pin", 3, 0)},
		"demand took over a prefetch in flight")
}

// A prefetch whose fetch fails after it started (a restart cuts the
// stream) installs nothing and gives its slot back (Check), and the demand
// access that finds it fetches the object itself (Step).
func TestFailedPendingPrefetchLeavesObjectRemote(t *testing.T) {
	poolCase(t, "loopback-faults", poolModel.Trace(sim.NewRNG(14), poolModel.Len), "demand fetched behind a failed prefetch")
}

// runWorkers runs four workers' traces at once on one pool of cfg, each on
// its own stripe of objects, so each read has one right answer; the checks
// between ops wait for quiesce. It asserts a tier, if any, was hit.
func runWorkers(t *testing.T, cfg modelConfig) {
	r := poolModel.Rig(t, cfg.sched)
	m, err := newModel(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	errs := make([]error, workers+1)
	var wg sync.WaitGroup
	var stepped atomic.Int64
	for w := range workers {
		ops := poolModel.Trace(sim.NewRNG(uint64(w)+1), 4000)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(ops) && errs[w] == nil; i++ {
				ops[i].ID = w*modelObjs/workers + ops[i].ID%(modelObjs/workers)
				if _, err := m.step(ops[i]); err != nil {
					errs[w] = fmt.Errorf("worker %d op %d %v: %w", w, i, ops[i], err)
				}
				stepped.Add(1)
			}
		}()
	}
	// The world's events run between the workers' ops counted together,
	// on a goroutine of their own: a worker may wait in a miss until the
	// node is back.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for i := 1; errs[workers] == nil; {
			n := int(stepped.Load())
			for ; i < n && errs[workers] == nil; i++ {
				errs[workers] = r.Between(i)
			}
			errs[workers] = errors.Join(errs[workers], r.Between(i))
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-stopped
	errs[workers] = errors.Join(errs[workers], r.Between(-1))
	hit := m.p.Far().Tier().Stats().Snapshot().Hits > 0
	// Check the pool the workers left: a lap that found every stripe busy
	// borrows too, and any budget the workers set may be stalled. A shrink
	// that met pinned or stalled objects converges lazily: finish it.
	m.everStalled, m.churned = true, true
	err = errors.Join(errors.Join(errs...), m.Check(), m.drain())
	m.bound = m.p.NumSlots()
	if err := errors.Join(err, m.p.Resize(uint64(m.bound*modelObjSize)), m.Quiesce()); err != nil {
		t.Fatal(err)
	} else if !hit && cfg.tier > 0 {
		t.Error("the workers never hit the compressed tier")
	}
}

// TestConcurrentModel is the model's K-worker run over a small tier, with
// a fault-free link and a faulty one, and over a faulty loopback server on a
// durable store, where several demand connections and the prefetch stream
// run at once and the node goes out of service every 97 ops of the four.
// make test-model and make test-stress run it under -race.
func TestConcurrentModel(t *testing.T) {
	for _, name := range []string{"tier-small", "faults-tier-small", "loopback-faults-durable"} {
		t.Run(name, func(t *testing.T) { runWorkers(t, modelCfg(name)) })
	}
}

// FuzzModel runs a trace drawn from the fuzzer's bytes on the SimLink
// config its first argument picks, fault-free or faulty.
func FuzzModel(f *testing.F) {
	f.Add(uint8(0), []byte("a pool with no tier: ascii text draws a trace as well as anything"))
	f.Add(uint8(1), bytes.Repeat([]byte{7, 200, 3, 90, 17, 250, 1, 64, 33, 128}, 40))
	f.Add(uint8(3), bytes.Repeat([]byte{41, 9, 180, 77, 2, 240, 63, 5, 128, 99}, 40))
	f.Fuzz(func(t *testing.T, c uint8, script []byte) {
		cfg := simConfigs[int(c)%len(simConfigs)]
		poolModel.Fuzz(t, cfg.sched, serial(cfg), script)
	})
}
