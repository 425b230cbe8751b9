// Package modeltest is the model discipline the runtimes' tests share. A
// seeded trace of ops, drawn up front, runs on a runtime and on one flat
// byte heap side by side: the heap holds the last bytes written at each
// offset, zeros where none were, and every read must match it. The runtime
// talks to a far node that runs one of the named fault schedules, in one of
// two worlds: a SimLink behind a FaultLink, or a real fabric.Server on
// loopback over a remote store (loopback.go). After every op the harness
// reconciles the fault counters with the injected faults, bounds the op's
// wire requests by its far-engine calls and runs the runtime's own check;
// at quiesce the runtime reads its heap back. A failing trace is shrunk and
// reported with a replay line.
//
// A runtime joins through an adapter in its own _test.go files, which
// supplies only its ops (Model), its check and its failure rule (Runtime).
// The harness does not know which runtime it serves. Only test files
// import this package.
package modeltest

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

var seed = flag.Uint64("model.seed", 0, "run TestModel's configs on this one seed (a failure prints it)")

// Schedule is a fault schedule: what the FaultLink injects, and the per-op
// deadline (RemoteConfig.OpDeadline, in cycles); and the world it runs in.
type Schedule struct {
	Faults   fabric.FaultConfig
	Deadline uint64
	node     node
}

// node is the memory node a schedule's traces run against.
type node int

const (
	simNode     node = iota // a SimLink behind a FaultLink
	plainNode               // a fabric.Server on loopback over a remote.Store
	durableNode             // ... over a remote.DurableStore
)

// OverLoopback is s run against a real fabric.Server on loopback, over a
// plain remote.Store kept across restarts or over a DurableStore that
// crashes and recovers: the loopback world, which reads s's faults in its
// own terms (see loopback).
func (s Schedule) OverLoopback(durable bool) Schedule {
	s.node = plainNode
	if durable {
		s.node = durableNode
	}
	return s
}

// Schedules are the fault schedules every model runs under, by name: none;
// 3 % drops, 3 % detected corruption, an 8-op outage every 97 ops and a
// shed every 23rd op; and drops, corruption, outages and 5 % delays that
// miss a per-op deadline of half a delay.
var Schedules = map[string]Schedule{
	"fault-free": {},
	"faults":     {Faults: fabric.FaultConfig{Seed: 11, DropRate: 0.03, CorruptRate: 0.03, OutageEvery: 97, OutageLen: 8, OverloadEvery: 23}},
	"faults-deadline": {Faults: fabric.FaultConfig{Seed: 11, DropRate: 0.03, CorruptRate: 0.03, OutageEvery: 97, OutageLen: 8, DelayRate: 0.05, DelayCycles: 200_000},
		Deadline: 100_000},
}

// Op is one op with every parameter drawn up front, so a trace with ops cut
// out of it still replays. What ID, Off, N and Val mean is the adapter's.
type Op struct {
	Kind       string
	ID, Off, N int
	Val        uint64
}

func (o Op) String() string {
	return fmt.Sprintf("%s(id=%d off=%d n=%d val=%d)", o.Kind, o.ID, o.Off, o.N, o.Val)
}

// Source is the randomness a trace is drawn from: a seeded sim.RNG, or a
// fuzzer's bytes.
type Source interface {
	Intn(n int) int
	Uint64() uint64
}

// byteSource is a fuzzer's bytes as a Source: one byte an Intn, eight a
// Uint64, zeros once they run out.
type byteSource []byte

func (s *byteSource) Intn(n int) (v int) {
	if len(*s) > 0 {
		v, *s = int((*s)[0])%n, (*s)[1:]
	}
	return v
}

func (s *byteSource) Uint64() (v uint64) {
	for range 8 {
		v = v<<8 | uint64(s.Intn(256))
	}
	return v
}

// Model is one runtime's model: the ops its traces draw, how long a seeded
// trace is, and the world each trace runs in.
type Model struct {
	Pkg     string                  // the package's directory, for the replay line
	Ops     []string                // the kinds of op a trace draws ...
	Weights []int                   // ... and how often: Weights[k] in Σ Weights
	Draw    func(src Source, o *Op) // an op's parameters, once its kind is drawn
	Len     int                     // ops in a seeded trace
	Heap    int                     // bytes in the flat heap
	Backend fabric.Backend          // the SimLink's cost model
	Retries int                     // RemoteConfig.RemoteRetries
}

// Runtime is the runtime under test, as its adapter serves it over a Rig.
type Runtime interface {
	// Step applies o to the runtime and, as far as it got, to the rig's
	// heap, and checks what the runtime read. A failure the runtime's
	// failure rule allows is no error.
	Step(o Op) error
	// Check holds the runtime's bookkeeping to what it summarizes. The
	// harness calls it after every op.
	Check() error
	// Quiesce checks what must hold once no op runs: the heap reads back
	// as the rig's. It may close the runtime.
	Quiesce() error
}

// Rig is one trace's setting: a simulated env, the world the far node
// lives in, and the flat heap.
type Rig struct {
	Env *sim.Env
	Far *fabric.SimLink // the far node of the SimLink world; nil over loopback
	Mem []byte          // what the runtime's heap must hold

	world   world
	sched   Schedule
	retries int
	leases  int             // bufpool.Outstanding() before the runtime was built
	cov     map[string]bool // nil: coverage is not kept

	mu      sync.Mutex
	counted uint64 // fault counts the env held at the ResetStats before the current ones
	reset   bool   // ResetStats ran during the current op
	deletes atomic.Uint64
}

// world is where the far node lives, as the harness reads it. The SimLink
// world keeps everything in process; the loopback world runs a real server
// (loopback.go).
type world interface {
	// transport is what the runtime talks to.
	transport() fabric.ErrorTransport
	// faults reports how many fault counts the runtime's far engine owes
	// the faults injected so far: exactly lo once nothing is in flight,
	// and never more than hi (a fetch started on a pipelined stream is
	// counted when it finishes).
	faults() (lo, hi uint64)
	// requests reports the wire requests the runtime has made.
	requests() uint64
	// corruptions reports the corrupted payloads injected so far.
	corruptions() uint64
	// peek reads the far copy of key into dst without charging a cycle.
	peek(key uint64, dst []byte) (bool, error)
	// between runs before op i, or before quiesce (i < 0): restarts and
	// recoveries, and their checks.
	between(i int) error
	// check holds the world's own books after an op.
	check() error
	// close shuts the node down and releases what it holds.
	close() error
}

// simWorld is a SimLink behind a FaultLink that runs the schedule.
type simWorld struct {
	far  *fabric.SimLink
	link *fabric.FaultLink
	env  *sim.Env
}

func (w *simWorld) transport() fabric.ErrorTransport { return w.link }

func (w *simWorld) faults() (lo, hi uint64) {
	fs := w.link.Stats()
	return fs.InjectedFailures() + fs.Corruptions, fs.InjectedFailures() + fs.Corruptions
}

func (w *simWorld) requests() uint64    { return w.link.Stats().Ops }
func (w *simWorld) corruptions() uint64 { return w.link.Stats().Corruptions }
func (w *simWorld) between(int) error   { return nil }
func (w *simWorld) check() error        { return nil }
func (w *simWorld) close() error        { return nil }

// peek fetches over the SimLink and hands back the cycles and bytes it
// charged.
func (w *simWorld) peek(key uint64, dst []byte) (bool, error) {
	c := &w.env.Counters
	cycles, fetched := w.env.Clock.Cycles(), sim.Load(&c.BytesFetched)
	found, err := w.far.TryFetchUntil(key, dst, fabric.Deadline{})
	w.env.Clock.Advance(cycles - w.env.Clock.Cycles()) // wraps around: takes the charge back
	sim.Add(&c.BytesFetched, fetched-sim.Load(&c.BytesFetched))
	return found, err
}

// Trace draws n ops from src: each op's kind by weight, then its
// parameters.
func (m Model) Trace(src Source, n int) []Op {
	total := 0
	for _, w := range m.Weights {
		total += w
	}
	ops := make([]Op, n)
	for i := range ops {
		r, k := src.Intn(total), 0
		for ; r >= m.Weights[k]; k++ {
			r -= m.Weights[k]
		}
		ops[i].Kind = m.Ops[k]
		m.Draw(src, &ops[i])
	}
	return ops
}

// Rig builds a fresh world under sched for a test of the runtime's own that
// drives its Runtime directly, with every buffer lease tracked for the rest
// of tb so that LeasesHome can count them. The world closes with tb, if
// LeasesHome has not closed it.
func (m Model) Rig(tb testing.TB, sched Schedule) *Rig {
	leaseDebug(tb)
	r, err := m.rig(sched, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { r.world.close() })
	return r
}

// rig builds a fresh world under sched whose notes go to cov.
func (m Model) rig(sched Schedule, cov map[string]bool) (*Rig, error) {
	r := &Rig{Env: sim.NewEnv(), Mem: make([]byte, m.Heap), sched: sched, retries: m.Retries, leases: bufpool.Outstanding(), cov: cov}
	if sched.node != simNode {
		w, err := newLoopback(r)
		r.world = w
		return r, err
	}
	faults := sched.Faults
	faults.Env = r.Env
	r.Far = fabric.NewSimLink(r.Env, m.Backend)
	r.world = &simWorld{far: r.Far, link: fabric.NewFaultLink(r.Far, faults), env: r.Env}
	return r, nil
}

// Remote is the RemoteConfig a runtime on r is built with.
func (r *Rig) Remote() fabric.RemoteConfig {
	return fabric.RemoteConfig{Transport: r.world.transport(), RemoteRetries: r.retries, OpDeadline: r.sched.Deadline}
}

// Corruptions reports the payloads the world has corrupted in flight so far.
func (r *Rig) Corruptions() uint64 { return r.world.corruptions() }

// Peek reads the far node's copy of key into dst, charging nothing: an
// absent key reads as zeros and reports false.
func (r *Rig) Peek(key uint64, dst []byte) (bool, error) {
	clear(dst)
	return r.world.peek(key, dst)
}

// Faulty reports whether the schedule injects faults.
func (r *Rig) Faulty() bool { return r.sched.Faults != fabric.FaultConfig{} }

// ResetStats resets the env's statistics, the reset-stats op every model
// has: the fault counters then reconcile with the faults injected since.
func (r *Rig) ResetStats() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counted = r.countedLocked()
	r.Env.ResetStats()
	r.reset = true
}

// Deleted notes n far-engine deletes the current op made: the far engine
// times no delete, so the wire bound cannot count them itself.
func (r *Rig) Deleted(n int) { r.deletes.Add(uint64(n)) }

// Note records whether the trace reached state, which every config that
// owes it must reach: a fault-free config, say, owes no failure. A state
// neither owed nor reached is not recorded, so a Case cannot require it.
func (r *Rig) Note(state string, reached, owed bool) {
	if r.cov != nil && (reached || owed) {
		r.cov[state] = r.cov[state] || reached
	}
}

// Differ reports the first byte where got, read at heap offset off, is not
// want.
func (r *Rig) Differ(off int, got, want []byte) error {
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("heap byte %#x reads %#02x, model holds %#02x", off+i, got[i], want[i])
		}
	}
	return nil
}

// FarCopies peeks at every unit of the heap on the far node and compares it
// with the heap: once the runtime has written everything back, the far node
// holds the heap (an absent key reads as zeros).
func (r *Rig) FarCopies(unit int) error {
	var err error
	buf := make([]byte, unit)
	for k := 0; k < len(r.Mem)/unit; k++ {
		_, ferr := r.Peek(uint64(k), buf)
		err = errors.Join(err, ferr, r.Differ(k*unit, buf, r.Mem[k*unit:(k+1)*unit]))
	}
	return err
}

// LeasesHome shuts the far node down, which releases the blobs it holds,
// and reports buffer leases the runtime took and did not return.
func (r *Rig) LeasesHome() error {
	err := r.world.close()
	if n := bufpool.Outstanding() - r.leases; n != 0 {
		err = errors.Join(err, fmt.Errorf("%d buffer leases outstanding", n))
	}
	return err
}

// Retry runs f until it neither fails nor panics, up to 1000 times, and
// returns its last failure: a read-back that must outlast the faults the
// schedule still injects.
func (r *Rig) Retry(f func() error) (err error) {
	for range 1000 {
		if err = catch(f); err == nil {
			return nil
		}
	}
	return err
}

// Drain runs evacuate until nothing is resident, up to 1000 times: a
// write-back refused during an outage goes through once it ends.
func (r *Rig) Drain(evacuate func(), resident func() int) error {
	for range 1000 {
		if evacuate(); resident() == 0 {
			return nil
		}
	}
	return fmt.Errorf("%d residents after 1000 evacuations", resident())
}

// Access runs f, an access of the runtime's that moves the heap bytes
// [off, off+len(buf)) between buf and the runtime — buf holds what a write
// stores, or a read's non-zero fill — and applies it to the heap: a read
// must match it, a write lands in it. If f panics, the access failed. It
// may fail only on a faulty schedule, with a panic that holds one of the
// runtime's ends, and like a memcpy that faults partway it must have moved
// exactly the bytes of the units (unit bytes each, aligned) before the one
// it faulted on — the unit after ends[0] ("<ends[0]><unit>:"), if the panic
// names one. A word read hands back none of it; what a failed write left
// is what peek reads. Access returns the failure and how many bytes moved.
func (r *Rig) Access(off, unit int, buf []byte, write, word bool, ends []string, peek func(off, n int) ([]byte, error), f func()) (failure string, moved int, err error) {
	heap := r.Mem[off : off+len(buf)]
	want, fill := bytes.Clone(heap), bytes.Clone(buf)
	if write {
		want, fill = fill, want
	}
	if failure = recovered(f); failure == "" && write {
		copy(heap, want)
		return "", len(buf), nil
	} else if failure == "" {
		return "", len(buf), r.Differ(off, buf, want)
	}
	if !r.Faulty() || !slices.ContainsFunc(ends, func(end string) bool { return strings.Contains(failure, end) }) {
		return failure, 0, fmt.Errorf("panic: %s", failure)
	}
	got := buf
	switch {
	case write:
		if got, err = peek(off, len(buf)); err != nil {
			return failure, 0, err
		}
	case word:
		got, fill = want, want
	}
	_, after, named := strings.Cut(failure, ends[0])
	for k := 0; k < len(want); k = (off+k)/unit*unit + unit - off {
		if (!named || strings.HasPrefix(after, fmt.Sprintf("%d:", (off+k)/unit))) && bytes.Equal(got, slices.Concat(want[:k], fill[k:])) {
			copy(heap, want[:k])
			return failure, k, nil
		}
	}
	return failure, 0, fmt.Errorf("failed with %q, having moved bytes up to no unit boundary before the unit it faulted on", failure)
}

// countedLocked is the fetch and push faults the runtime has counted, less
// the deadlines it missed, since the rig was built.
func (r *Rig) countedLocked() uint64 {
	c := r.Env.Counters.Snapshot()
	return r.counted + c.RemoteFetchFaults + c.RemotePushFaults - c.DeadlineMisses
}

// reconcile checks that the fault counters are the faults the world
// injected plus the deadlines missed: as many as the world owes, or, while
// the world has fetches in flight that may yet fail, no more than that;
// once quiet, exactly that.
func (r *Rig) reconcile(quiet bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	counted := r.countedLocked()
	lo, hi := r.world.faults()
	if quiet {
		lo = hi
	}
	if counted < lo || counted > hi {
		return fmt.Errorf("%d fetch and push faults counted past the deadlines missed, the world injected %d (%d with what is in flight)", counted, lo, hi)
	}
	return nil
}

// calls counts the far-engine calls so far: the timed fetches and pushes,
// and the deletes noted.
func (r *Rig) calls() uint64 {
	lat := r.Env.Lat()
	return lat.RemoteFetch.Snapshot().Count() + lat.RemotePush.Snapshot().Count() + r.deletes.Load()
}

// recovered runs f and returns what it panicked with, if it did.
func recovered(f func()) (failure string) {
	defer func() {
		if p := recover(); p != nil {
			failure = fmt.Sprint(p)
		}
	}()
	f()
	return ""
}

// catch runs f, turning a panic into its error.
func catch(f func() error) (err error) {
	if failure := recovered(func() { err = f() }); failure != "" {
		return fmt.Errorf("panic: %s", failure)
	}
	return err
}

// run runs ops on a runtime build makes over a fresh rig under sched,
// checked after every op, then quiesces it. cov, if not nil, collects the
// states the trace reached.
func (m Model) run(sched Schedule, build func(*Rig) (Runtime, error), cov map[string]bool, ops []Op) error {
	r, err := m.rig(sched, cov)
	defer func() { r.world.close() }()
	if err != nil {
		return err
	}
	rt, err := build(r)
	if err != nil {
		return err
	}
	for i, o := range ops {
		if err := r.world.between(i); err != nil {
			return fmt.Errorf("before op %d %v: %w", i, o, err)
		}
		wire, calls := r.world.requests(), r.calls()
		r.reset = false
		err := catch(func() error { return rt.Step(o) })
		// A far-engine call makes at most Retries wire requests.
		if reqs, calls := r.world.requests()-wire, r.calls()-calls; !r.reset && reqs > uint64(m.Retries)*calls {
			err = errors.Join(err, fmt.Errorf("%d wire requests for %d far-engine calls", reqs, calls))
		}
		if err := errors.Join(err, r.reconcile(false), r.world.check(), catch(rt.Check)); err != nil {
			return fmt.Errorf("op %d %v: %w", i, o, err)
		}
	}
	if err := r.world.between(-1); err != nil {
		return fmt.Errorf("before quiesce: %w", err)
	}
	if err := errors.Join(catch(rt.Quiesce), r.reconcile(true), r.world.check()); err != nil {
		return fmt.Errorf("quiesce: %w", err)
	}
	return nil
}

// Test runs the seeded traces of one config, and then its directed ones,
// and asserts they reached every state the runtime noted. t is the
// config's subtest of TestModel. -model.seed replays a seed, and skips the
// directed traces and the coverage.
func (m Model) Test(t *testing.T, sched Schedule, build func(*Rig) (Runtime, error), directed map[string][]Op) {
	leaseDebug(t)
	cov := map[string]bool{}
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	if *seed != 0 {
		seeds, directed = []uint64{*seed}, nil
	}
	for _, s := range seeds {
		m.trace(t, sched, build, cov, m.Trace(sim.NewRNG(s), m.Len), fmt.Sprintf("seed %d", s), fmt.Sprintf("'%s$' -model.seed=%d", t.Name(), s))
	}
	for name, ops := range directed {
		m.trace(t, sched, build, cov, ops, "the "+name+" trace", fmt.Sprintf("'%s$'", t.Name()))
	}
	for state, reached := range cov {
		if !reached && *seed == 0 {
			t.Errorf("the traces never reached %q", state)
		}
	}
}

// Case runs one trace, seeded or directed, as Test does, and asserts that
// it reached each of states: a test of one feature whose assertions the
// runtime's checks make, kept under its name so that a failure names the
// feature.
func (m Model) Case(t *testing.T, sched Schedule, build func(*Rig) (Runtime, error), ops []Op, states ...string) {
	leaseDebug(t)
	cov := map[string]bool{}
	m.trace(t, sched, build, cov, ops, "the trace", fmt.Sprintf("'^%s$'", t.Name()))
	for _, state := range states {
		if !cov[state] {
			t.Errorf("the trace never reached %q", state)
		}
	}
}

// trace runs ops, and fails t with what failed, the op, a replay line (go
// test's -run and flags) and the trace shrunk to the ops that still fail.
func (m Model) trace(t *testing.T, sched Schedule, build func(*Rig) (Runtime, error), cov map[string]bool, ops []Op, what, replay string) {
	if err := m.run(sched, build, cov, ops); err != nil {
		min := shrink(ops, func(ops []Op) bool { return m.run(sched, build, nil, ops) != nil })
		t.Fatalf("%s: %v\nreplay: go test ./%s -run %s\nshrunk to %d ops: %v\n%v", what, err, m.Pkg, replay, len(min), min, m.run(sched, build, nil, min))
	}
}

// Fuzz runs a trace drawn from a fuzzer's bytes, up to five an op.
func (m Model) Fuzz(t *testing.T, sched Schedule, build func(*Rig) (Runtime, error), script []byte) {
	leaseDebug(t)
	src := byteSource(script)
	if err := m.run(sched, build, nil, m.Trace(&src, len(script)/5)); err != nil {
		t.Fatal(err)
	}
}

// shrink cuts a failing trace down: runs of halving length, down to single
// ops, are dropped wherever the rest still fails, until no op can go.
func shrink(ops []Op, fails func([]Op) bool) []Op {
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

// leaseDebug tracks every buffer lease for the rest of tb, so LeasesHome
// can count them.
func leaseDebug(tb testing.TB) {
	bufpool.SetDebug(true)
	tb.Cleanup(func() { bufpool.SetDebug(bufpool.RaceEnabled) })
}
