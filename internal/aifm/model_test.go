package aifm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

// The model is what the pool's heap must hold, as one flat byte array: each
// object's last bytes written, zeros for an object never written or freed.
// Seeded op traces run on a Pool over SimLink and on the model side by
// side. Every read must match the model; after every op of a serial trace
// the pool's bookkeeping must hold (check), and at quiesce the heap, the
// far copies, the fetch claims and the buffer leases must agree with it
// (quiesce). A new pool feature adds its op to modelOps and its invariant
// to check or quiesce.

var modelSeed = flag.Uint64("model.seed", 0, "run TestModel's configs on this one seed (a failure prints it)")

// Every config's pool: 96 objects of 256 B over 16 slots. The configs
// differ in the compressed tier's starting budget.
const modelObjSize, modelObjs, modelSlots = 256, 96, 16

var modelConfigs = []struct {
	name string
	tier uint64
}{{"tier-off", 0}, {"tier-small", 4 << 10}, {"tier-large", 1 << 20}}

// modelOps are the ops a trace draws from, with their weights out of 64.
// The first three move bytes, and bit 0 of val makes them writes: an
// access, a word access, and a pin that reads or writes its window in
// place and unpins it.
var (
	modelOps     = []string{"access", "word", "pin", "prefetch", "free", "resize", "throttle", "evacuate-all", "tier-budget", "reset-stats"}
	modelWeights = []int{24, 12, 8, 8, 4, 2, 2, 1, 2, 1}
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
	link   *fabric.SimLink
	tier   uint64
	mem    []byte // modelObjSize bytes an object
	leases int    // bufpool.Outstanding() before the pool was built
}

func newModel(tb testing.TB, tier uint64) *model {
	m := &model{tier: tier, mem: make([]byte, modelObjs*modelObjSize), leases: bufpool.Outstanding()}
	m.p, _, m.link = newTestPool(tb, modelObjSize, modelObjs*modelObjSize, modelSlots*modelObjSize, func(c *Config) { c.CompressedBudget = tier })
	return m
}

func (m *model) obj(id ObjectID) []byte { return m.mem[int(id)*modelObjSize : int(id+1)*modelObjSize] }

func resizeSlots(o modelOp) int { return 1 + int(o.val)%modelSlots }

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

// step applies o to the model, then to the pool, and checks what the pool
// read. Workers may step one model at once on disjoint objects.
func (m *model) step(o modelOp) error {
	p, obj, write := m.p, m.obj(o.id), o.val&1 == 1 && o.kind < 3
	want, buf := obj[o.off:o.off+o.n], make([]byte, o.n) // a read starts from zeros, not from the answer
	if write {
		for i := range want {
			want[i] = byte(o.val + uint64(i)*(o.val>>8|1))
		}
		copy(buf, want)
	}
	switch modelOps[o.kind] {
	case "access":
		return errors.Join(p.Access(o.id, uint64(o.off), buf, write), differ(o.id, buf, want))
	case "word":
		if got, err := p.Word(o.id, uint64(o.off), binary.LittleEndian.Uint64(buf), write); err != nil || got != binary.LittleEndian.Uint64(want) {
			return fmt.Errorf("object %d: word %#x, model holds % x: %v", o.id, got, want, err)
		}
	case "pin":
		win, _, err := p.Pin(o.id, write)
		if err != nil {
			return err
		}
		defer p.Unpin(o.id)
		if write {
			copy(win[o.off:], want)
		}
		return differ(o.id, win, obj)
	case "prefetch":
		p.Prefetch(o.id)
	case "free":
		p.Free(o.id)
		clear(obj)
	case "resize":
		return p.Resize(uint64(resizeSlots(o) * modelObjSize))
	case "throttle":
		p.Throttle(o.val&1 == 1)
	case "evacuate-all":
		p.EvacuateAll()
	case "tier-budget":
		p.Far().Tier().Resize(m.tier >> (o.val % 4))
	case "reset-stats":
		p.env.ResetStats()
	}
	return nil
}

// check holds the pool's bookkeeping to what it summarizes, between ops:
// the slot owners and the metadata table name the same residents, as many
// as the resident count, within the budget.
func (m *model) check(budget int) error {
	p, tier := m.p, m.p.Far().Tier()
	res, owned, present := p.ResidentSlots(), 0, 0 // res before Held: an eviction drops the held copy first
	for slot := range p.slotOwner {
		if id := p.ownerAt(slot); id != noOwner {
			if meta := p.Meta(id); !meta.Present() || meta.DataAddr() != uint64(slot*modelObjSize) {
				return fmt.Errorf("slot %d's owner %d has metadata %#x", slot, id, uint64(meta))
			}
			owned++
		}
	}
	for id := range p.table {
		if p.Meta(ObjectID(id)).Present() {
			present++
		}
	}
	switch {
	case owned != res || present != res:
		return fmt.Errorf("%d slots owned and %d objects present, %d resident", owned, present, res)
	case p.LocalBytes() > uint64(budget*modelObjSize):
		return fmt.Errorf("%d bytes resident over a budget of %d slots", p.LocalBytes(), budget)
	case p.cold.Load() != recountCold(p):
		return fmt.Errorf("cold count %d, table holds %d", p.cold.Load(), recountCold(p))
	case p.PinnedObjects() != 0:
		return fmt.Errorf("%d objects pinned", p.PinnedObjects())
	case tier.Held() > res:
		return fmt.Errorf("%d held tier copies over %d residents", tier.Held(), res)
	case tier.HeldBytes() > tier.Budget():
		return fmt.Errorf("held tier copies of %d bytes over a budget of %d", tier.HeldBytes(), tier.Budget())
	}
	return nil
}

// quiesce checks what must hold once no op runs: the heap reads back as
// the model, and so do the far copies once everything is evacuated (an
// absent key reads as zeros); no fetch claim, pending prefetch or buffer
// lease is left once the pool closes.
func (m *model) quiesce(budget int) error {
	p, buf := m.p, make([]byte, modelObjSize)
	err := m.check(budget)
	for id := ObjectID(0); id < modelObjs; id++ {
		err = errors.Join(err, p.Access(id, 0, buf, false), differ(id, buf, m.obj(id)))
	}
	p.EvacuateAll()
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

// runModel runs traces on a fresh pool, then quiesces it. Several traces
// run at once, one goroutine each, on disjoint objects, and the checks
// between ops wait for quiesce. One trace runs serially, checked after
// every op, and a panic is its failure too. cov, if not nil, collects the
// states a serial trace reached, or whether concurrent ones hit the tier.
func runModel(tb testing.TB, tier uint64, cov map[string]bool, traces ...[]modelOp) (err error) {
	m, budget := newModel(tb, tier), modelSlots
	if len(traces) > 1 {
		errs := make([]error, len(traces))
		var wg sync.WaitGroup
		for w, ops := range traces {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < len(ops) && errs[w] == nil; i++ {
					if err := m.step(ops[i]); err != nil {
						errs[w] = fmt.Errorf("worker %d op %d %v: %w", w, i, ops[i], err)
					}
				}
			}()
		}
		wg.Wait()
		if cov != nil {
			cov["tier hit"] = m.p.Far().Tier().Stats().Snapshot().Hits > 0
		}
		budget = m.p.NumSlots() // a shrink that met pinned objects converges lazily: finish it
		return errors.Join(errors.Join(errs...), m.p.Resize(uint64(budget*modelObjSize)), m.quiesce(budget))
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	for i, o := range traces[0] {
		meta, was := m.p.Meta(o.id), budget
		if modelOps[o.kind] == "resize" {
			budget = resizeSlots(o)
		}
		if err := errors.Join(m.step(o), m.check(budget)); err != nil {
			return fmt.Errorf("op %d %v: %w", i, o, err)
		}
		if cov == nil {
			continue
		}
		for state, reached := range map[string]bool{
			"some cold":                 m.p.cold.Load() > 0,
			"residents but none cold":   m.p.cold.Load() == 0 && m.p.ResidentSlots() > 0,
			"tier hit":                  sim.Load(&m.p.env.Counters.TierHits) > 0 || tier == 0, // a config without a tier owes none
			"prefetch hit":              sim.Load(&m.p.env.Counters.PrefetchHits) > 0,
			"shrink":                    budget < was,
			"grow":                      budget > was,
			"free of a resident":        modelOps[o.kind] == "free" && meta.Present(),
			"free of an evicted object": modelOps[o.kind] == "free" && meta != 0 && !meta.Present(),
		} {
			cov[state] = cov[state] || reached
		}
	}
	return m.quiesce(budget)
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

// TestModel runs seeded traces of each config against the model, and
// asserts they reached every state runModel's coverage names. A failure
// prints its seed, its config and its trace shrunk to the ops that still
// fail; -model.seed replays the seed.
func TestModel(t *testing.T) {
	leaseDebug(t)
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if *modelSeed != 0 {
		seeds = []uint64{*modelSeed}
	}
	for _, cfg := range modelConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			cov := map[string]bool{}
			for _, seed := range seeds {
				ops := genOps(sim.NewRNG(seed), 0, modelObjs, 4000)
				if err := runModel(t, cfg.tier, cov, ops); err != nil {
					min := shrink(ops, func(ops []modelOp) bool { return runModel(t, cfg.tier, nil, ops) != nil })
					t.Fatalf("seed %d, config %+v: %v\nreplay: go test ./internal/aifm -run 'TestModel/%s$' -model.seed=%d\nshrunk to %d ops: %v\n%v",
						seed, cfg, err, cfg.name, seed, len(min), min, runModel(t, cfg.tier, nil, min))
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

// modelCase runs one seeded trace on a config against the model, and fails
// unless it reached every state named. Each test below is one such case,
// aimed at one of the invariants check and quiesce hold.
func modelCase(t *testing.T, tier, seed uint64, states ...string) {
	t.Helper()
	leaseDebug(t)
	cov := map[string]bool{}
	if err := runModel(t, tier, cov, genOps(sim.NewRNG(seed), 0, modelObjs, 4000)); err != nil {
		t.Fatalf("seed %d, tier budget %d: %v", seed, tier, err)
	}
	for _, state := range states {
		if !cov[state] {
			t.Errorf("the trace never reached %q", state)
		}
	}
}

// TestColdCountMatchesTable holds the cold count to a recount of the table
// after every op of a trace that publishes metadata words down every path
// (hits, misses, prefetches, frees, both halves of Resize, EvacuateAll,
// eviction throttled and not), and that reaches both "some cold" and
// "residents but none cold".
func TestColdCountMatchesTable(t *testing.T) {
	modelCase(t, 0, 30, "some cold", "residents but none cold", "shrink", "grow")
}

// TestDataIntegrityAcrossManyEvictions: 96 objects churn through 16 slots,
// and every read, and the read-back at quiesce, must see the last bytes
// written, through evictions, frees of evicted objects and shrinks.
func TestDataIntegrityAcrossManyEvictions(t *testing.T) {
	modelCase(t, 0, 7, "free of an evicted object", "shrink")
}

// TestTierOracleDifferential is the tier's semantic gate: the tier is
// write-through (a demotion parks a compressed copy beside, never instead
// of, the fabric push), so its budget is a pure performance knob. One
// seeded trace runs with the tier off, small and large; each run's heap and
// far copies must equal the model, and so each other's.
func TestTierOracleDifferential(t *testing.T) {
	for _, cfg := range modelConfigs {
		t.Run(cfg.name, func(t *testing.T) { modelCase(t, cfg.tier, 0xD1FF, "tier hit") })
	}
}

// TestLocalBudgetInvariantProperty: whatever the seed, resident bytes stay
// within the budget in force after every op, across resizes. A failure
// names the seed: its trace is the first 500 ops of the one TestModel's
// -model.seed runs.
func TestLocalBudgetInvariantProperty(t *testing.T) {
	leaseDebug(t)
	if err := quick.Check(func(seed uint64) bool {
		return runModel(t, 0, nil, genOps(sim.NewRNG(seed), 0, modelObjs, 500)) == nil
	}, &quick.Config{MaxCount: 20, Rand: rand.New(rand.NewSource(99))}); err != nil {
		t.Error(err)
	}
}

// runWorkers runs four workers' traces on one pool with the given tier
// budget, each on its own stripe of objects, so each read has one right
// answer, and asserts the tier was hit.
func runWorkers(t *testing.T, tier uint64) {
	leaseDebug(t)
	traces, cov := make([][]modelOp, 4), map[string]bool{}
	for w := range traces {
		traces[w] = genOps(sim.NewRNG(uint64(w)+1), w*modelObjs/4, (w+1)*modelObjs/4, 4000)
	}
	if err := runModel(t, tier, cov, traces...); err != nil {
		t.Fatal(err)
	} else if !cov["tier hit"] {
		t.Error("the workers never hit the compressed tier")
	}
}

// TestConcurrentModel is the model's K-worker run over a small tier. make
// test-stress runs it under -race.
func TestConcurrentModel(t *testing.T) { runWorkers(t, modelConfigs[1].tier) }

// FuzzModel runs a trace drawn from the fuzzer's bytes, up to five an op,
// against the model, on the config its first argument picks.
func FuzzModel(f *testing.F) {
	leaseDebug(f)
	f.Add(uint8(0), []byte("a pool with no tier: ascii text draws a trace as well as anything"))
	f.Add(uint8(1), bytes.Repeat([]byte{7, 200, 3, 90, 17, 250, 1, 64, 33, 128}, 40))
	f.Fuzz(func(t *testing.T, c uint8, script []byte) {
		cfg, src := modelConfigs[int(c)%len(modelConfigs)], byteSource(script)
		if err := runModel(t, cfg.tier, nil, genOps(&src, 0, modelObjs, len(script)/5)); err != nil {
			t.Fatalf("config %s: %v", cfg.name, err)
		}
	})
}
