package fastswap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/far"
	"trackfm/internal/sim"
)

// The model is what the swap's heap must hold, as one flat byte array: the
// last bytes stored at each offset, zeros where none were. Seeded op traces
// run on a Swap over a FaultLink around a SimLink and on the model side by
// side. Every read must match the model; a failed op must have accessed
// exactly the pages before the one it faulted on (step); after every op the
// swap's bookkeeping must hold (check) and the op must have made no more
// wire requests than its far-engine calls may (runModel); and at quiesce the
// far copies and a read-back of the heap must equal the model.

var modelSeed = flag.Uint64("model.seed", 0, "run TestModel's configs on this one seed (a failure prints it)")

// Every config's swap: 32 pages over 4 frames, two wire attempts a far
// engine call, and 2000 ops a trace. The configs are the faults the link
// injects: none; drops, detected corruption, outage windows and overload
// sheds; and drops, outages and delays, which miss a per-op deadline of half
// a delay. An outage is as long as the write-backs of every frame may take,
// so a reclaim can find them all stalled.
const modelFrames, modelRetries, modelHeap, modelTrace = 4, 2, 32 * pageSize, 2000

var modelConfigs = map[string]fabric.FaultConfig{
	"fault-free":      {},
	"faults":          {Seed: 11, DropRate: 0.03, CorruptRate: 0.03, OutageEvery: 97, OutageLen: 8, OverloadEvery: 23},
	"faults-deadline": {Seed: 11, DropRate: 0.03, OutageEvery: 97, OutageLen: 8, DelayRate: 0.05, DelayCycles: 200_000},
}

// modelOps are the ops a trace draws from, with their weights out of 64 and
// their lengths. The first four are accesses: odd ones store want, even ones
// read into buf; a load or store is one byte to two pages long (-1), so it
// crosses page boundaries.
var modelOps = []struct {
	name      string
	weight, n int
	run       func(m *model, off uint64, want, buf []byte)
}{
	{"load", 20, -1, func(m *model, off uint64, _, buf []byte) { m.s.Load(off, buf) }},
	{"store", 20, -1, func(m *model, off uint64, want, _ []byte) { m.s.Store(off, want) }},
	{"load-u64", 10, 8, func(m *model, off uint64, _, buf []byte) { binary.LittleEndian.PutUint64(buf, m.s.LoadU64(off)) }},
	{"store-u64", 10, 8, func(m *model, off uint64, want, _ []byte) { m.s.StoreU64(off, binary.LittleEndian.Uint64(want)) }},
	{"evacuate-all", 2, 0, func(m *model, _ uint64, _, _ []byte) { m.s.EvacuateAll() }},
	{"reset-stats", 2, 0, func(m *model, _ uint64, _, _ []byte) { m.s.env.ResetStats(); m.faultBase = m.faults.Stats() }},
}

// The two ends a failed op may panic with: a swap-in whose fetch failed for
// good (the SIGBUS analogue), which names its page, and a reclaim that found
// every frame's write-back stalled.
const sigbus, noFrame = "unrecoverable remote fault on page ", "no reclaimable frame"

// modelOp is one op with its parameters: a kind drawn by weight, a length,
// an offset the length fits after, and the bytes a store writes.
type modelOp struct {
	kind, off, n int
	val          uint64
}

type model struct {
	s         *Swap
	link      *fabric.SimLink   // the far node
	faults    *fabric.FaultLink // what the swap talks to
	mem       []byte
	faultBase fabric.FaultStats // the injected faults at the last reset-stats
}

// differ reports the first byte where got, read at heap offset off, is not
// the model's want.
func differ(off int, got, want []byte) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("heap byte %#x reads %#02x, model holds %#02x", off+i, got[i], want[i])
		}
	}
	return nil
}

// peek reads the swap's bytes [off, off+n) where they live, faulting nothing
// in: a mapped page's frame, any other page's far copy, which the SimLink
// reads as zeros if none was pushed.
func (m *model) peek(off, n int) (out []byte) {
	for pg := off / pageSize; pg*pageSize < off+n; pg++ {
		page := make([]byte, pageSize)
		if m.s.states[pg] == PageMapped {
			copy(page, m.s.frameBuf(uint64(m.s.frame[pg])*pageSize))
		} else {
			_, _ = m.link.TryFetchUntil(uint64(pg), page, fabric.Deadline{}) // a SimLink without a deadline cannot fail
		}
		out = append(out, page...)
	}
	return out[off%pageSize:][:n]
}

// step applies o to the swap and, as far as it got, to the model, and
// checks what the swap read. An op that panics has failed; it may do so only
// on a faulty config, only as an access, and only with one of the swap's two
// ends. Like a memcpy that faults partway, it must have accessed exactly the
// pages before the one it faulted on: a store wrote those and nothing from
// there on, a load filled the caller's buffer that far and left the rest as
// it was. step returns the failure and how many of the op's bytes moved.
func (m *model) step(o modelOp, faulty bool) (failure string, moved int, err error) {
	old, write := m.mem[o.off:o.off+o.n], o.kind == 1 || o.kind == 3
	// The range once o has run, a read's starting bytes, and what o reads.
	want, fill, buf := bytes.Clone(old), bytes.Repeat([]byte{0xEE}, o.n), bytes.Repeat([]byte{0xEE}, o.n)
	for i := 0; write && i < o.n; i++ {
		want[i] = byte(o.val>>(i%8*8)) ^ byte(i>>3)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				failure = fmt.Sprint(r)
			}
		}()
		modelOps[o.kind].run(m, uint64(o.off), want, buf)
	}()
	_, after, named := strings.Cut(failure, sigbus)
	switch {
	case failure != "" && (!faulty || o.kind > 3 || !named && !strings.Contains(failure, noFrame)):
		return failure, 0, fmt.Errorf("panic: %s", failure)
	case write:
		buf, fill = m.peek(o.off, o.n), bytes.Clone(old) // what the heap holds, and held
	case o.kind == 2 && failure != "":
		buf, fill = want, want // LoadU64 hands back no part of a word
	}
	if failure == "" {
		copy(old, want)
		return "", o.n, differ(o.off, buf, want)
	}
	// The op faulted on its first page or at one of its page boundaries: on
	// the page the SIGBUS names, if it names one.
	for k := 0; k < o.n; k = (o.off+k)/pageSize*pageSize + pageSize - o.off {
		if (!named || strings.HasPrefix(after, fmt.Sprintf("%d:", (o.off+k)/pageSize))) && bytes.Equal(buf, slices.Concat(want[:k], fill[k:])) {
			copy(old, want[:k])
			return failure, k, nil
		}
	}
	return failure, 0, fmt.Errorf("failed with %q, having moved bytes up to no page boundary before the page it faulted on", failure)
}

// check holds the swap's bookkeeping to what it summarizes, between ops:
// every frame is owned by the one mapped page mapped to it, or free, exactly
// once; only mapped pages are dirty or referenced; the resident bytes fit
// the budget; and the fault counters since the last reset-stats are the
// faults the link injected plus the deadlines missed.
func (m *model) check() error {
	s, seen := m.s, make([]int, modelFrames)
	for _, f := range s.freeFrames {
		if seen[f]++; s.frameOwner[f] != noPage {
			return fmt.Errorf("free frame %d is owned by page %d", f, s.frameOwner[f])
		}
	}
	for pg, st := range s.states {
		switch {
		case st == PageMapped && s.frameOwner[s.frame[pg]] != uint32(pg):
			return fmt.Errorf("page %d is mapped to frame %d, which is owned by page %d", pg, s.frame[pg], s.frameOwner[s.frame[pg]])
		case st == PageMapped:
			seen[s.frame[pg]]++
		case s.dirty[pg] || s.refd[pg]:
			return fmt.Errorf("page %d is not mapped, but dirty %t and referenced %t", pg, s.dirty[pg], s.refd[pg])
		}
	}
	c, fs, base := s.env.Counters.Snapshot(), m.faults.Stats(), m.faultBase
	injected := fs.InjectedFailures() + fs.Corruptions - base.InjectedFailures() - base.Corruptions + c.DeadlineMisses
	switch f := slices.IndexFunc(seen, func(n int) bool { return n != 1 }); {
	case f >= 0:
		return fmt.Errorf("frame %d is owned or free %d times", f, seen[f])
	case s.ResidentBytes() > modelFrames*pageSize:
		return fmt.Errorf("%d bytes resident over a budget of %d", s.ResidentBytes(), modelFrames*pageSize)
	case c.RemoteFetchFaults+c.RemotePushFaults != injected:
		return fmt.Errorf("%d fetch and push faults counted, %d injected or past their deadline", c.RemoteFetchFaults+c.RemotePushFaults, injected)
	}
	return nil
}

// runModel runs a trace drawn from seed on a fresh swap over a link that
// injects faults, against the model, checked after every op. Then it heals
// the link — the swap's far engine is rebuilt over the bare SimLink — and
// drains the swap with EvacuateAll, which must leave nothing resident; every
// page's far copy, and a read-back of the heap, must then equal the model.
// cov, if not nil, collects the states the trace reached.
func runModel(faults fabric.FaultConfig, cov map[string]bool, seed uint64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	env, faulty := sim.NewEnv(), faults != fabric.FaultConfig{}
	faults.Env = env
	m := &model{link: fabric.NewSimLink(env, fabric.BackendRDMA), mem: make([]byte, modelHeap)}
	m.faults = fabric.NewFaultLink(m.link, faults)
	if m.s, err = New(Config{Env: env, HeapSize: modelHeap, LocalBudget: modelFrames * pageSize,
		RemoteConfig: fabric.RemoteConfig{Transport: m.faults, RemoteRetries: modelRetries, OpDeadline: faults.DelayCycles / 2}}); err != nil {
		return err
	}
	rng := sim.NewRNG(seed)
	for i := range modelTrace {
		var o modelOp
		for r := rng.Intn(64); r >= modelOps[o.kind].weight; o.kind++ {
			r -= modelOps[o.kind].weight
		}
		if o.n, o.val = modelOps[o.kind].n, rng.Uint64(); o.n < 0 {
			o.n = 1 + rng.Intn(2*pageSize)
		}
		o.off = rng.Intn(modelHeap - o.n + 1)
		c0, wire, pushes := env.Counters.Snapshot(), m.faults.Stats().Ops, env.Lat().RemotePush.Snapshot().Count()
		failure, moved, err := m.step(o, faulty)
		c, pushes := env.Counters.Snapshot(), env.Lat().RemotePush.Snapshot().Count()-pushes
		// A far-engine call — a major fault's fetch or a dirty write-back
		// — makes at most modelRetries wire requests.
		if calls, reqs := c.MajorFaults-c0.MajorFaults+pushes, m.faults.Stats().Ops-wire; reqs > modelRetries*calls {
			err = errors.Join(err, fmt.Errorf("%d wire requests for %d major faults and write-backs", reqs, calls))
		}
		if err := errors.Join(err, m.check()); err != nil {
			return fmt.Errorf("op %d %s%+v: %w", i, modelOps[o.kind].name, o, err)
		}
		if cov == nil || modelOps[o.kind].name == "reset-stats" {
			continue
		}
		written := pushes - (c.EvictionStalls - c0.EvictionStalls) // dirty evictions that completed
		for state, reached := range map[string]bool{
			"minor fault":       c.MinorFaults > c0.MinorFaults,
			"major fault":       c.MajorFaults > c0.MajorFaults,
			"clean eviction":    c.PageEvictions-c0.PageEvictions > written,
			"dirty eviction":    written > 0,
			"cross-page access": failure == "" && o.off%pageSize+o.n > pageSize,
			// A fault-free config owes no stall and no failure.
			"eviction stall":       c.EvictionStalls > c0.EvictionStalls || !faulty,
			"failed major fault":   strings.Contains(failure, sigbus) || !faulty,
			"store failed partway": failure != "" && (o.kind == 1 || o.kind == 3) && moved > 0 || !faulty,
			"no reclaimable frame": strings.Contains(failure, noFrame) || !faulty,
		} {
			cov[state] = cov[state] || reached
		}
	}
	m.s.far, err = far.New(far.Config{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: m.link},
		Backend: fabric.BackendRDMA, UnitSize: pageSize, DegradeAfter: -1})
	if m.s.EvacuateAll(); err == nil && m.s.ResidentBytes() != 0 {
		err = fmt.Errorf("%d bytes resident after EvacuateAll over a healed link", m.s.ResidentBytes())
	}
	buf := make([]byte, modelHeap)
	m.s.Load(0, buf)
	return errors.Join(err, m.check(), differ(0, m.peek(0, modelHeap), m.mem), differ(0, buf, m.mem))
}

// TestModel runs seeded traces of each config against the model, and
// asserts they reached every state runModel's coverage names. A failure
// prints its seed, the op index, the op and a replay line.
func TestModel(t *testing.T) {
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if *modelSeed != 0 {
		seeds = []uint64{*modelSeed}
	}
	for name, faults := range modelConfigs {
		t.Run(name, func(t *testing.T) {
			cov := map[string]bool{}
			for _, seed := range seeds {
				if err := runModel(faults, cov, seed); err != nil {
					t.Fatalf("seed %d, config %s: %v\nreplay: go test ./internal/fastswap -run '^TestModel$' -model.seed=%d", seed, name, err, seed)
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
