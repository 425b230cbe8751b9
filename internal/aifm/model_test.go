package aifm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"slices"
	"sync"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/far"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

// The model is what the pool's heap must hold, as one flat byte array: each
// object's last bytes written, zeros for an object never written or freed.
// Seeded op traces run on a Pool over a FaultLink around a SimLink and on
// the model side by side. Every read must match the model; after every op
// of a serial trace the pool's bookkeeping must hold (check), and at
// quiesce the heap, the far copies, the fetch claims and the buffer leases
// must agree with it (quiesce). An op that fails with a typed error must
// leave no trace (step). A new pool feature adds its op to modelOps and its
// invariant to check or quiesce.

var modelSeed = flag.Uint64("model.seed", 0, "run TestModel's configs on this one seed (a failure prints it)")

// Every config's pool: 96 objects of 256 B over 16 slots, two wire attempts
// an op. The configs differ in the compressed tier's starting budget and in
// the faults the link injects: drops, detected corruption and outage
// windows, and in one, delays past a per-op deadline.
const modelObjSize, modelObjs, modelSlots, modelRetries = 256, 96, 16, 2

type modelConfig struct {
	name     string
	tier     uint64
	faults   fabric.FaultConfig
	deadline uint64 // RemoteConfig.OpDeadline, in cycles
}

var (
	modelFaults  = fabric.FaultConfig{Seed: 11, DropRate: 0.03, CorruptRate: 0.03, OutageEvery: 101, OutageLen: 3, OverloadEvery: 31}
	modelDelays  = fabric.FaultConfig{Seed: 11, DropRate: 0.03, CorruptRate: 0.03, OutageEvery: 101, OutageLen: 3, DelayRate: 0.03, DelayCycles: 200_000}
	modelConfigs = []modelConfig{
		{name: "tier-off"}, {name: "tier-small", tier: 4 << 10}, {name: "tier-large", tier: 1 << 20},
		{name: "faults", faults: modelFaults}, {name: "faults-tier-small", tier: 4 << 10, faults: modelFaults},
		{name: "faults-deadline", faults: modelDelays, deadline: 100_000},
	}
)

// modelCfg returns the config named name: tests pick configs by name, so a
// config added or moved changes what no test covers.
func modelCfg(name string) modelConfig {
	return modelConfigs[slices.IndexFunc(modelConfigs, func(c modelConfig) bool { return c.name == name })]
}

// modelOps are the ops a trace draws from, with their weights out of 64.
// The first three move bytes, and bit 0 of val makes them writes: an
// access, a word access, and a pin that reads or writes its window in
// place and unpins it. Bit 0 of val also says whether degrade
// (Far().ForceDegrade) turns its mode on or off. idle advances the clock
// past the thrash window, as an application computing does; random traces
// never draw it, for after it no refetch is a re-fault and the governor
// would hardly ever throttle.
var (
	modelOps     = []string{"access", "word", "pin", "prefetch", "free", "resize", "govern", "evacuate-all", "reset-stats", "degrade", "idle"}
	modelWeights = []int{23, 12, 8, 8, 4, 2, 4, 1, 1, 1, 0}
)

// modelOp is one op with every parameter drawn up front, so a trace with
// ops cut out of it still replays.
type modelOp struct {
	kind, off, n int
	id           ObjectID
	val          uint64
}

func (o modelOp) String() string {
	return fmt.Sprintf("%s(id=%d off=%d n=%d val=%d)", modelOps[o.kind], o.id, o.off, o.n, o.val)
}

// genOps draws n ops on objects [lo, hi) from src.
func genOps(src interface{ Intn(int) int }, lo, hi, n int) []modelOp {
	ops := make([]modelOp, n)
	for i := range ops {
		o := &ops[i]
		o.id, o.val = ObjectID(lo+src.Intn(hi-lo)), uint64(src.Intn(1<<16))
		for r := src.Intn(64); r >= modelWeights[o.kind]; o.kind++ {
			r -= modelWeights[o.kind]
		}
		o.off = src.Intn(modelObjSize - 7) // a word fits
		if o.n = 8; modelOps[o.kind] != "word" {
			o.n = 1 + src.Intn(modelObjSize-o.off)
		}
	}
	return ops
}

// byteSource is genOps's randomness taken from a fuzzer's bytes, one a
// draw, zeros once they run out.
type byteSource []byte

func (s *byteSource) Intn(n int) (v int) {
	if len(*s) > 0 {
		v, *s = int((*s)[0])%n, (*s)[1:]
	}
	return v
}

type model struct {
	p      *Pool
	link   *fabric.SimLink   // the far node, under faults
	faults *fabric.FaultLink // what the pool talks to
	tier   uint64
	mem    []byte // modelObjSize bytes an object
	leases int    // bufpool.Outstanding() before the pool was built

	// A serial trace's record: the injected faults at the last
	// reset-stats, whether any op stalled an eviction, and the governor's
	// state as refGov predicts it.
	serial      bool
	faultBase   fabric.FaultStats
	everStalled bool
	gov         refGov
}

// refGov is the governor Pool.Govern must be, written out again with its
// own constants, so a changed constant in the pool shows: a decision at
// most every eighth of the thrash window; a reading of 0.35 or more
// throttles, and three in a row at or below a third of that recover.
type refGov struct {
	last      uint64
	calm      int
	throttled bool
}

// tick is one Govern call at cycle now that reads ratio.
func (g *refGov) tick(now uint64, ratio float64, window uint64) {
	if now-g.last < window/8 {
		return
	}
	g.last = now
	switch {
	case !g.throttled:
		g.throttled = ratio >= 0.35
	case ratio > 0.35/3:
		g.calm = 0
	default:
		if g.calm++; g.calm == 3 {
			g.throttled, g.calm = false, 0
		}
	}
}

func newModel(tb testing.TB, cfg modelConfig) *model {
	env, faults := sim.NewEnv(), cfg.faults
	faults.Env = env
	m := &model{link: fabric.NewSimLink(env, fabric.BackendTCP), tier: cfg.tier, mem: make([]byte, modelObjs*modelObjSize), leases: bufpool.Outstanding()}
	m.faults = fabric.NewFaultLink(m.link, faults)
	p, err := NewPool(Config{
		Env:              env,
		RemoteConfig:     fabric.RemoteConfig{Transport: m.faults, RemoteRetries: modelRetries, OpDeadline: cfg.deadline},
		ObjectSize:       modelObjSize,
		HeapSize:         modelObjs * modelObjSize,
		LocalBudget:      modelSlots * modelObjSize,
		CompressedBudget: cfg.tier,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m.p = p
	return m
}

func (m *model) obj(id ObjectID) []byte { return m.mem[int(id)*modelObjSize : int(id+1)*modelObjSize] }

// resizeSlots is the budget a resize asks for: up to the starting one, or
// 0 or one slot past it, which Resize must refuse.
func resizeSlots(o modelOp) int { return int(o.val) % (modelSlots + 2) }

// differ reports the first byte where what was read of object id is not
// what the model holds.
func differ(id ObjectID, got, want []byte) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("object %d: byte %d of %d reads %#02x, model holds %#02x", id, i, len(want), got[i], want[i])
		}
	}
	return nil
}

// typed returns the typed error err wraps, or nil: the errors an op may
// fail with, any other being a bug.
func typed(err error) error {
	for _, t := range []error{fabric.ErrRemoteUnavailable, fabric.ErrIntegrity, fabric.ErrDeadlineExceeded, fabric.ErrOverloaded, far.ErrDegraded} {
		if errors.Is(err, t) {
			return t
		}
	}
	return nil
}

// step applies o to the pool and, once it succeeded, to the model, and
// checks what the pool read. An access, word or pin that fails with a
// typed error (failure) must leave no trace: the model unwritten, the
// caller's buffer as it was — a read's starts from a non-zero fill, so a
// zero scribble shows — and no window lent. Workers may step one model at
// once on disjoint objects.
func (m *model) step(o modelOp) (failure, err error) {
	p, obj, write := m.p, m.obj(o.id), o.val&1 == 1 && o.kind < 3
	next := bytes.Clone(obj) // the object once o has run
	want, buf := next[o.off:o.off+o.n], bytes.Repeat([]byte{0xEE}, o.n)
	if write {
		for i := range want {
			want[i] = byte(o.val + uint64(i)*(o.val>>8|1))
		}
		copy(buf, want)
	}
	sent := bytes.Clone(buf)
	switch modelOps[o.kind] {
	case "access":
		failure = p.Access(o.id, uint64(o.off), buf, write)
	case "word":
		var got uint64
		if got, failure = p.Word(o.id, uint64(o.off), binary.LittleEndian.Uint64(buf), write); failure == nil {
			binary.LittleEndian.PutUint64(buf, got)
		}
	case "pin":
		var win []byte
		if win, _, failure = p.Pin(o.id, write); win != nil {
			if write {
				copy(win[o.off:], want)
			}
			err = differ(o.id, win, next)
			copy(buf, win[o.off:])
			p.Unpin(o.id)
		}
		if failure != nil && win != nil {
			err = errors.Join(err, fmt.Errorf("object %d: a failed Pin lent a window", o.id))
		}
	case "prefetch":
		p.Prefetch(o.id)
	case "free":
		p.Free(o.id)
		clear(obj)
	case "resize":
		n := resizeSlots(o)
		if err := p.Resize(uint64(n * modelObjSize)); (err == nil) != (n >= 1 && n <= modelSlots) {
			return nil, fmt.Errorf("a resize to %d slots returned %v", n, err)
		}
	case "govern":
		p.Govern()
	case "evacuate-all":
		p.EvacuateAll()
	case "idle":
		p.env.Clock.Advance(p.thrashWindow + 1)
	case "reset-stats":
		p.env.ResetStats()
	case "degrade":
		p.Far().ForceDegrade(o.val&1 == 1)
	}
	switch {
	case failure != nil && typed(failure) == nil:
		return nil, errors.Join(err, failure)
	case failure != nil && !bytes.Equal(buf, sent):
		return failure, errors.Join(err, fmt.Errorf("object %d: failed with %w, and left % x in a buffer that held % x", o.id, failure, buf, sent))
	case failure != nil:
		return failure, err
	case o.kind >= 3: // moves no bytes
		return nil, err
	}
	copy(obj, next)
	return nil, errors.Join(err, differ(o.id, buf, want))
}

// check holds the pool's bookkeeping to what it summarizes, between ops:
// every slot is owned, free, in the reserve or retired, exactly once; the
// slot owners and the metadata table name the same residents, as many as
// the resident count, within bound slots plus those borrowed from the
// reserve floor, which only a lap that stalled on every resident borrows;
// and a serial trace's fault counters since its last reset-stats are the
// faults the link injected plus the deadlines missed. The governor's state
// is refGov's in a serial trace; throttled, the pool prefetches nothing of
// its own and its tier has half its budget. No more fetches re-fault than
// there are, and the thrash ratio is a fraction. The bound is the budget,
// but a resize that stalled on a refused write-back keeps the bound before
// it, if larger: the shrink converges lazily.
func (m *model) check(bound int) error {
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
	if slot := slices.IndexFunc(seen, func(n int) bool { return n != 1 }); slot >= 0 {
		return fmt.Errorf("slot %d is owned, free, in the reserve or retired %d times", slot, seen[slot])
	}
	for id := range p.table {
		if p.Meta(ObjectID(id)).Present() {
			present++
		}
	}
	c, fs := &p.env.Counters, m.faults.Stats()
	faults := sim.Load(&c.RemoteFetchFaults) + sim.Load(&c.RemotePushFaults)
	injected := fs.InjectedFailures() + fs.Corruptions - m.faultBase.InjectedFailures() - m.faultBase.Corruptions + sim.Load(&c.DeadlineMisses)
	switch {
	case owned != res || present != res:
		return fmt.Errorf("%d slots owned and %d objects present, %d resident", owned, present, res)
	case p.LocalBytes() > uint64((bound+borrowed)*modelObjSize):
		return fmt.Errorf("%d bytes resident over a bound of %d slots and %d borrowed", p.LocalBytes(), bound, borrowed)
	case borrowed > 0 && !m.everStalled:
		return fmt.Errorf("%d reserve slots borrowed, and no eviction ever stalled", borrowed)
	case m.serial && faults != injected:
		return fmt.Errorf("%d fetch and push faults counted, %d injected or past their deadline", faults, injected)
	case p.cold.Load() != recountCold(p):
		return fmt.Errorf("cold count %d, table holds %d", p.cold.Load(), recountCold(p))
	case p.PinnedObjects() != 0:
		return fmt.Errorf("%d objects pinned", p.PinnedObjects())
	case tier.Held() > res:
		return fmt.Errorf("%d held tier copies over %d residents", tier.Held(), res)
	case tier.HeldBytes() > tier.Budget():
		return fmt.Errorf("held tier copies of %d bytes over a budget of %d", tier.HeldBytes(), tier.Budget())
	case m.serial && p.Throttled() != m.gov.throttled:
		return fmt.Errorf("throttled %t, the reference governor says %t", p.Throttled(), m.gov.throttled)
	case p.Throttled() == (p.PrefetchDepth() > 0):
		return fmt.Errorf("throttled %t with prefetch depth %d", p.Throttled(), p.PrefetchDepth())
	case p.Throttled() && tier.Budget() != m.tier/2 || !p.Throttled() && tier.Budget() != m.tier:
		return fmt.Errorf("throttled %t with a tier budget of %d, configured %d", p.Throttled(), tier.Budget(), m.tier)
	case sim.Load(&c.Refaults) > sim.Load(&c.RemoteFetches):
		return fmt.Errorf("%d re-faults in %d remote fetches", sim.Load(&c.Refaults), sim.Load(&c.RemoteFetches))
	case !(p.ThrashRatio() >= 0 && p.ThrashRatio() <= 1):
		return fmt.Errorf("thrash ratio %v", p.ThrashRatio())
	}
	return nil
}

// settle re-issues op while it fails with a typed error — an outage ends,
// a probe fetch lifts a degradation the deadline breaker entered — up to
// a bound, and returns its last error.
func settle(op func() error) (err error) {
	for range 1000 {
		if err = op(); typed(err) == nil {
			return err
		}
	}
	return err
}

// drain lifts a forced degradation and evacuates until nothing is
// resident: a write-back refused during an outage goes through once it
// ends.
func (m *model) drain() error {
	m.p.Far().ForceDegrade(false)
	for range 1000 {
		if m.p.EvacuateAll(); m.p.ResidentSlots() == 0 {
			return nil
		}
	}
	return fmt.Errorf("%d residents after 1000 EvacuateAlls", m.p.ResidentSlots())
}

// quiesce checks what must hold once no op runs: the heap reads back as
// the model, check holds on the residents the read-back leaves and again
// once they are drained, and the far copies read as the model (an absent
// key reads as zeros); no fetch claim, pending prefetch or buffer lease is
// left once the pool closes.
func (m *model) quiesce(bound int) error {
	p, buf := m.p, make([]byte, modelObjSize)
	p.Far().ForceDegrade(false)
	stalls := sim.Load(&p.env.Counters.EvictionStalls)
	var err error
	for id := ObjectID(0); id < modelObjs; id++ {
		err = errors.Join(err, settle(func() error { return p.Access(id, 0, buf, false) }), differ(id, buf, m.obj(id)))
	}
	m.everStalled = m.everStalled || sim.Load(&p.env.Counters.EvictionStalls) > stalls
	err = errors.Join(err, m.check(bound), m.drain(), m.check(bound))
	for id := ObjectID(0); id < modelObjs; id++ {
		_, ferr := m.link.TryFetchUntil(uint64(id), buf, fabric.Deadline{})
		err = errors.Join(err, ferr, differ(id, buf, m.obj(id)))
	}
	for i := range p.stripes {
		if n := len(p.stripes[i].inflight); n != 0 {
			err = errors.Join(err, fmt.Errorf("stripe %d holds %d fetch claims", i, n))
		}
	}
	if n := p.PendingPrefetches(); n != 0 {
		err = errors.Join(err, fmt.Errorf("%d prefetches pending", n))
	}
	p.Close()
	if n := bufpool.Outstanding() - m.leases; n != 0 {
		err = errors.Join(err, fmt.Errorf("%d buffer leases outstanding after Close", n))
	}
	return err
}

// runModel runs traces on a fresh pool of cfg, then quiesces it. Several
// traces run at once, one goroutine each, on disjoint objects, and the
// checks between ops wait for quiesce. One trace runs serially, checked
// after every op, and a panic is its failure too. cov, if not nil, collects
// the states a serial trace reached, or whether concurrent ones hit the
// tier.
func runModel(tb testing.TB, cfg modelConfig, cov map[string]bool, traces ...[]modelOp) (err error) {
	m, budget := newModel(tb, cfg), modelSlots
	if len(traces) > 1 {
		errs := make([]error, len(traces))
		var wg sync.WaitGroup
		for w, ops := range traces {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < len(ops) && errs[w] == nil; i++ {
					if _, err := m.step(ops[i]); err != nil {
						errs[w] = fmt.Errorf("worker %d op %d %v: %w", w, i, ops[i], err)
					}
				}
			}()
		}
		wg.Wait()
		if cov != nil {
			cov["tier hit"] = m.p.Far().Tier().Stats().Snapshot().Hits > 0
		}
		// Check the pool the workers left: a lap that found every stripe
		// busy borrows too, and any budget the workers set may be stalled.
		m.everStalled = true
		err := errors.Join(errors.Join(errs...), m.check(modelSlots), m.drain())
		budget = m.p.NumSlots() // a shrink that met pinned or stalled objects converges lazily: finish it
		return errors.Join(err, m.p.Resize(uint64(budget*modelObjSize)), m.quiesce(budget))
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	m.serial = true
	p, c := m.p, &m.p.env.Counters
	// A tier that holds every object serves every refetch: no remote
	// fetch, so no thrash sample, and the governor never throttles.
	absorbs := cfg.tier >= modelObjs*modelObjSize
	bound := budget
	for i, o := range traces[0] {
		kind := modelOps[o.kind]
		meta, was, degraded, throttled := p.Meta(o.id), budget, p.Far().Degraded(), p.Throttled()
		stalls, fetchFaults, corrupt := sim.Load(&c.EvictionStalls), sim.Load(&c.RemoteFetchFaults), m.faults.Stats().Corruptions
		evictions, skipped, resizes := sim.Load(&c.Evacuations), sim.Load(&c.PrefetchSkippedPressure), p.Resizes()
		fetches, pushes, wire := p.lat.RemoteFetch.Snapshot().Count(), p.lat.RemotePush.Snapshot().Count(), m.faults.Stats().Ops // a fetch, refused or not, is timed
		cycles, ratio := p.env.Clock.Cycles(), p.ThrashRatio()
		// The throttled pool's admission gate: a prefetch that finds more
		// than 0.75 of the budget in use is skipped (a degraded engine's,
		// before it gets there).
		gated := kind == "prefetch" && throttled && !degraded && 1-float64(p.freeCount())/float64(p.NumSlots()) > 0.75
		failure, err := m.step(o)
		stalled := sim.Load(&c.EvictionStalls) > stalls
		m.everStalled = m.everStalled || stalled
		// A far-engine call — a fetch, a push, or a free's delete — makes
		// at most modelRetries wire requests.
		calls := p.lat.RemoteFetch.Snapshot().Count() - fetches + p.lat.RemotePush.Snapshot().Count() - pushes
		if kind == "free" {
			calls++
		}
		if reqs := m.faults.Stats().Ops - wire; kind != "reset-stats" && reqs > modelRetries*calls {
			err = errors.Join(err, fmt.Errorf("%d wire requests for %d far-engine calls", reqs, calls))
		}
		switch kind {
		case "resize":
			accepted := uint64(0)
			if n := resizeSlots(o); n >= 1 && n <= modelSlots {
				budget, accepted = n, 1
				if !stalled || budget > bound {
					bound = budget
				}
			}
			if p.NumSlots() != budget || p.Resizes() != resizes+accepted {
				err = errors.Join(err, fmt.Errorf("a budget of %d slots after %d resizes, want %d after %d", p.NumSlots(), p.Resizes(), budget, resizes+accepted))
			} else if accepted == 1 && !stalled && p.CurrentSlots() != budget {
				err = errors.Join(err, fmt.Errorf("%d slots circulate after a resize to %d that did not stall", p.CurrentSlots(), budget))
			}
		case "govern":
			m.gov.tick(cycles, ratio, p.thrashWindow)
		case "reset-stats":
			m.faultBase = m.faults.Stats()
		}
		if now := p.Meta(o.id); failure != nil && now != meta {
			err = errors.Join(err, fmt.Errorf("the failure left metadata %#x, was %#x", uint64(now), uint64(meta)))
		} else if kind == "prefetch" && degraded && !meta.Present() && now.Present() {
			err = errors.Join(err, fmt.Errorf("object %d prefetched while degraded", o.id))
		} else if gated && (now != meta || sim.Load(&c.Evacuations) != evictions || sim.Load(&c.PrefetchSkippedPressure) != skipped+1) {
			err = errors.Join(err, fmt.Errorf("a prefetch of object %d past the throttled pool's high-water mark was not skipped", o.id))
		} else if !gated && sim.Load(&c.PrefetchSkippedPressure) > skipped {
			err = errors.Join(err, fmt.Errorf("a %s counted a prefetch skipped under pressure", kind))
		}
		if err := errors.Join(err, m.check(bound)); err != nil {
			return fmt.Errorf("op %d %v: %w", i, o, err)
		}
		if cov == nil {
			continue
		}
		if failure != nil {
			cov[failedState(kind, o.val&1 == 1, typed(failure))] = true
		}
		for state, reached := range map[string]bool{
			"some cold":                 p.cold.Load() > 0,
			"residents but none cold":   p.cold.Load() == 0 && p.ResidentSlots() > 0,
			"tier hit":                  sim.Load(&c.TierHits) > 0 || cfg.tier == 0, // a config without a tier owes none
			"prefetch hit":              sim.Load(&c.PrefetchHits) > 0,
			"shrink":                    budget < was,
			"grow":                      budget > was,
			"free of a resident":        kind == "free" && meta.Present(),
			"free of an evicted object": kind == "free" && meta != 0 && !meta.Present(),
			"eviction stall":            stalled,
			"degraded refusal":          errors.Is(failure, far.ErrDegraded) && p.lat.RemoteFetch.Snapshot().Count() == fetches, // no slot, so no fetch
			"prefetch while degraded":   kind == "prefetch" && degraded && !meta.Present(),
			// A fault-free config owes no failed prefetch and no healed corruption.
			"failed prefetch":   kind == "prefetch" && sim.Load(&c.RemoteFetchFaults) > fetchFaults && !p.Meta(o.id).Present() || cfg.faults == fabric.FaultConfig{},
			"corruption healed": failure == nil && m.faults.Stats().Corruptions > corrupt || cfg.faults == fabric.FaultConfig{},
			// A config whose tier absorbs every refetch owes no throttle.
			"governor throttled":                p.Throttled() || absorbs,
			"governor recovered":                kind == "govern" && throttled && !p.Throttled() || absorbs,
			"prefetch skipped under pressure":   gated || absorbs,
			"prefetch admitted while throttled": kind == "prefetch" && throttled && !meta.Present() && p.Meta(o.id).Present() || absorbs,
		} {
			cov[state] = cov[state] || reached
		}
	}
	return m.quiesce(bound)
}

// failedState names the state an op of kind reached by failing with class.
func failedState(kind string, write bool, class error) string {
	return fmt.Sprintf("failed %s (write %t): %v", kind, write, class)
}

// shrink cuts a failing trace down: runs of halving length, down to single
// ops, are dropped wherever the rest still fails, until no op can go.
func shrink(ops []modelOp, fails func([]modelOp) bool) []modelOp {
	for chunk, n := len(ops)/2, len(ops); chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			if try := append(ops[:i:i], ops[i+chunk:]...); fails(try) {
				ops = try
			} else {
				i += chunk
			}
		}
		if chunk == 1 && len(ops) < n { // a cut can free ops that failed to go before it
			chunk, n = 2, len(ops)
		}
	}
	return ops
}

// leaseDebug tracks every buffer lease for the rest of tb, so quiesce can
// count them home.
func leaseDebug(tb testing.TB) {
	bufpool.SetDebug(true)
	tb.Cleanup(func() { bufpool.SetDebug(bufpool.RaceEnabled) })
}

// op is a directed trace's op on object id: 8 bytes at offset 0, written
// when val is odd.
func op(kind string, id ObjectID, val uint64) modelOp {
	return modelOp{kind: slices.Index(modelOps, kind), id: id, n: 8, val: val}
}

// directedTraces are the hand-built traces of TestModel, for the states a
// random trace reaches only by luck.
func directedTraces() map[string][]modelOp {
	// Laps of writes over twice as many objects as there are slots, the
	// governor ticked after each, refetch what was evicted moments ago:
	// the governor throttles. Whole objects are written, with a pattern LZ
	// cannot shrink, so a small tier holds few. Full, the throttled pool
	// skips a prefetch; emptied, it admits one. Then each round computes
	// past the thrash window, refetches and ticks, until calm readings
	// recover it.
	var gov []modelOp
	for lap := range 8 {
		for id := range ObjectID(2 * modelSlots) {
			w := op("access", id, uint64(id)<<9|uint64(lap)<<8|1)
			w.n = modelObjSize
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
	degrade := []modelOp{op("degrade", 0, 1)}
	for id := range ObjectID(2*modelSlots + 1) {
		degrade = append(degrade, op("access", id, 1))
	}
	degrade = append(degrade, op("pin", 2*modelSlots+1, 0), op("degrade", 0, 0))
	return map[string][]modelOp{"governor": gov, "degraded refusal": degrade}
}

// TestModel runs seeded traces of each config against the model, then the
// directed ones, and asserts they reached every state runModel's coverage
// names, and the failure of both client protocols, Access and Pin, reading
// and writing, from both sources: a degraded engine, which refuses to
// fetch, and, on a faulty config, the link. A failure prints its seed (or
// its directed trace), its config and its trace shrunk to the ops that
// still fail; -model.seed replays the seed, and skips the directed traces.
func TestModel(t *testing.T) {
	leaseDebug(t)
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if *modelSeed != 0 {
		seeds = []uint64{*modelSeed}
	}
	for _, cfg := range modelConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			cov := map[string]bool{}
			for _, kind := range []string{"access", "pin"} {
				for _, write := range []bool{false, true} {
					cov[failedState(kind, write, far.ErrDegraded)] = false
					cov[failedState(kind, write, fabric.ErrRemoteUnavailable)] = cfg.faults == fabric.FaultConfig{} // a fault-free config owes none
				}
			}
			fails := func(ops []modelOp) bool { return runModel(t, cfg, nil, ops) != nil }
			for _, seed := range seeds {
				ops := genOps(sim.NewRNG(seed), 0, modelObjs, 4000)
				if err := runModel(t, cfg, cov, ops); err != nil {
					min := shrink(ops, fails)
					t.Fatalf("seed %d, config %+v: %v\nreplay: go test ./internal/aifm -run 'TestModel/%s$' -model.seed=%d\nshrunk to %d ops: %v\n%v",
						seed, cfg, err, cfg.name, seed, len(min), min, runModel(t, cfg, nil, min))
				}
			}
			directed := directedTraces()
			if *modelSeed != 0 {
				directed = nil
			}
			for name, ops := range directed {
				if err := runModel(t, cfg, cov, ops); err != nil {
					min := shrink(ops, fails)
					t.Fatalf("the %s trace, config %+v: %v\nshrunk to %d ops: %v\n%v", name, cfg, err, len(min), min, runModel(t, cfg, nil, min))
				}
			}
			for state, reached := range cov {
				if !reached && *modelSeed == 0 {
					t.Errorf("the traces never reached %q", state)
				}
			}
		})
	}
}

// runWorkers runs four workers' traces on one pool of cfg, each on its own
// stripe of objects, so each read has one right answer, and asserts the
// tier was hit.
func runWorkers(t *testing.T, cfg modelConfig) {
	leaseDebug(t)
	traces, cov := make([][]modelOp, 4), map[string]bool{}
	for w := range traces {
		traces[w] = genOps(sim.NewRNG(uint64(w)+1), w*modelObjs/4, (w+1)*modelObjs/4, 4000)
	}
	if err := runModel(t, cfg, cov, traces...); err != nil {
		t.Fatal(err)
	} else if !cov["tier hit"] {
		t.Error("the workers never hit the compressed tier")
	}
}

// TestConcurrentModel is the model's K-worker run over a small tier, with
// a fault-free link and a faulty one. make test-stress runs it under -race.
func TestConcurrentModel(t *testing.T) {
	for _, name := range []string{"tier-small", "faults-tier-small"} {
		t.Run(name, func(t *testing.T) { runWorkers(t, modelCfg(name)) })
	}
}

// FuzzModel runs a trace drawn from the fuzzer's bytes, up to five an op,
// against the model, on the config its first argument picks, fault-free
// or faulty.
func FuzzModel(f *testing.F) {
	leaseDebug(f)
	f.Add(uint8(0), []byte("a pool with no tier: ascii text draws a trace as well as anything"))
	f.Add(uint8(1), bytes.Repeat([]byte{7, 200, 3, 90, 17, 250, 1, 64, 33, 128}, 40))
	f.Add(uint8(3), bytes.Repeat([]byte{41, 9, 180, 77, 2, 240, 63, 5, 128, 99}, 40))
	f.Fuzz(func(t *testing.T, c uint8, script []byte) {
		cfg, src := modelConfigs[int(c)%len(modelConfigs)], byteSource(script)
		if err := runModel(t, cfg, nil, genOps(&src, 0, modelObjs, len(script)/5)); err != nil {
			t.Fatalf("config %s: %v", cfg.name, err)
		}
	})
}
