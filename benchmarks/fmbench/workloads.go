package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"trackfm/farmem"
	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/kmeans"
	"trackfm/internal/workloads/nas"
	"trackfm/internal/workloads/stream"
)

const objectBytes = 4096

// Sizes at -scale 1. The far slice is 4x local memory, so a uniform random
// access misses 75% of the time; hot-guard inverts that so nothing misses.
const (
	farBytes      = 32 << 20
	localBytes    = 8 << 20
	hotFarBytes   = 8 << 20
	hotLocalBytes = 16 << 20
	tierBytes     = 8 << 20
	scanSlices    = 64
)

// spec is one workload: who calls, how often an op is timed, and how to
// set it up. Names are fixed; later issues cite them.
type spec struct {
	name    string
	workers int // closed-loop callers in the timed run (a traced run uses one)
	every   int // every n-th op is timed and, when tracing, gets an op span
	// memShare is the share of an op's time that moves with the host
	// probe (see hostFactor); measured on the development host, it serves
	// only to take host noise out of wall times.
	memShare float64
	// tracedOps is the op count of a traced run at -seconds 10; it scales
	// with -seconds and nothing else, so traced counts repeat exactly.
	// spans bounds the spans one traced op can open.
	tracedOps, spans int
	// build sets the workload up for that many callers, over the two
	// decorators when tr is set and over plain RemoteAddr otherwise.
	build func(rc *runCtx, sp *spec, callers int, tr *tracer) (*instance, error)
}

var specs = []spec{
	{name: "hot-guard", memShare: 1, workers: 1, every: 64, tracedOps: 4_000_000, spans: 1, build: guardBuilder(hotFarBytes, hotLocalBytes, 0, false, 20)},
	{name: "scan-far", memShare: 0.5, workers: 1, every: 1, tracedOps: 800, spans: 2*(farBytes/scanSlices/objectBytes+8) + 1, build: buildScan},
	{name: "miss-read", memShare: 0.75, workers: 1, every: 1, tracedOps: 150_000, spans: 5, build: guardBuilder(farBytes, localBytes, 0, false, 0)},
	{name: "miss-read-tier", memShare: 0.5, workers: 1, every: 1, tracedOps: 150_000, spans: 5, build: guardBuilder(farBytes, localBytes, tierBytes, false, 0)},
	{name: "miss-mixed-mt", memShare: 0.5, workers: 2, every: 1, tracedOps: 100_000, spans: 5, build: guardBuilder(farBytes, localBytes, 0, false, 50)},
	{name: "miss-write-durable", memShare: 0.5, workers: 1, every: 1, tracedOps: 40_000, spans: 5, build: guardBuilder(farBytes, localBytes, 0, true, 50)},
	{name: "compiled-run", memShare: 0.5, workers: 1, every: 1, tracedOps: 150, spans: 1, build: buildCompiled},
}

func findSpec(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// runCtx is what every set-up needs from the invocation.
type runCtx struct {
	seed   uint64
	scale  float64 // shrinks every size; 1 in real runs, small in the smoke test
	tmpDir string  // parent of the durable store's directory
	res    *resources
}

// scaled shrinks a byte size by rc.scale, keeping whole objects and at
// least 16 of them.
func (rc *runCtx) scaled(b uint64) uint64 {
	v := uint64(float64(b)*rc.scale) &^ (objectBytes - 1)
	if v < 16*objectBytes {
		v = 16 * objectBytes
	}
	return v
}

// instance is one set-up workload, ready to run ops.
type instance struct {
	op        func(*worker)
	workers   []*worker
	every     int
	simCycles func() float64      // cumulative simulated cycles
	counters  func() sim.Counters // cumulative runtime counters
	rig       *rig                // nil for compiled-run
	release   func()              // removes the instance from the clean-up list and closes it
}

// value is what element i holds after its seq-th write: a 24-bit hash
// zero-extended to 64 bits, shared by the two elements of a pair until one
// is rewritten. ctier's codec spends three bytes on a copy, so 8-byte
// periods barely compress (1.24x); the 16-byte period makes a freshly
// filled 4 KiB object 1.66x compressible, which lets an 8 MiB tier hold a
// little over half of what miss-read-tier evicts.
func value(seed uint64, i int, seq uint8) uint64 {
	x := (uint64(i>>1)<<8|uint64(seq))*0x9E3779B97F4A7C15 ^ seed
	x ^= x >> 32
	x *= 0xD6E8FEB86659FD93
	x ^= x >> 32
	return x >> 40
}

// rig is the TCP stack under a workload: an in-process fabric.Server on
// loopback, composed as cmd/fmserver composes it, and a farmem.Heap dialed
// to it.
type rig struct {
	srv  *fabric.Server
	mem  *remote.Store
	ds   *remote.DurableStore // nil unless the workload is durable
	adm  *fabric.Admission
	heap *farmem.Heap
	tcp  *fabric.TCPTransport // set only when traced; the heap then does not own it
	dir  string               // durable data dir, "" otherwise
	addr string               // where the server listens

	release func() // takes the rig off the clean-up list and closes it
}

type rigConfig struct {
	heapBytes, localBytes, tierBytes uint64
	durable                          bool
}

func durableConfig(dir string) remote.DurableConfig {
	// Fsync never: the workload measures WAL encode + write + compaction
	// code, not the device.
	return remote.DurableConfig{Dir: dir, Fsync: remote.FsyncNever, SnapshotEvery: 4 << 20}
}

func newRig(rc *runCtx, cfg rigConfig, tr *tracer) (r *rig, err error) {
	r = &rig{mem: remote.NewStore()}
	defer func() {
		if err != nil {
			r.close()
		} else {
			r.release = rc.res.add(r.close)
		}
	}()
	var backing fabric.BlobStore = r.mem
	if cfg.durable {
		if r.dir, err = os.MkdirTemp(rc.tmpDir, "fmbench-wal-"); err != nil {
			return nil, err
		}
		if r.ds, err = remote.OpenDurable(durableConfig(r.dir)); err != nil {
			return nil, err
		}
		r.mem = r.ds.Store
		backing = r.ds
	}
	if tr != nil {
		backing = &tracedStore{inner: backing, tr: tr}
	}
	r.srv = fabric.NewServer(backing)
	if r.ds != nil {
		r.srv.SetGeneration(r.ds.Generation(), true)
	}
	r.adm = r.srv.EnableAdmission(fabric.AdmissionConfig{
		MaxQueue: 256,
		Target:   uint64(5 * time.Millisecond),
		Interval: uint64(100 * time.Millisecond),
	})
	if r.addr, err = r.srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return nil, err
	}
	hc := farmem.Config{
		HeapBytes:       cfg.heapBytes,
		LocalBytes:      cfg.localBytes,
		ObjectBytes:     objectBytes,
		CompressedBytes: cfg.tierBytes,
	}
	if tr != nil {
		if r.tcp, err = fabric.Dial(r.addr); err != nil {
			return nil, err
		}
		hc.Transport = &tracedTransport{inner: r.tcp, tr: tr}
	} else {
		hc.RemoteAddr = r.addr
	}
	r.heap, err = farmem.New(hc)
	return r, err
}

// close tears the rig down and removes its data dir. Safe on a partly
// built rig, and more than once.
func (r *rig) close() {
	r.shutdown()
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// shutdown stops the rig client first, as a program and then its fmserver
// would exit: the server drains, the durable store writes its final
// snapshot.
func (r *rig) shutdown() {
	if r.heap != nil {
		r.heap.Close()
	}
	if r.tcp != nil {
		r.tcp.Close()
	}
	if r.srv != nil {
		if err := r.srv.Shutdown(time.Second); err != nil && !errors.Is(err, fabric.ErrClosed) {
			r.srv.Close()
		}
	}
	if r.ds != nil {
		r.ds.Close()
	}
}

// recoveryMs shuts the rig down and times reopening its data dir.
func (r *rig) recoveryMs() (float64, error) {
	r.shutdown()
	ds, err := remote.OpenDurable(durableConfig(r.dir))
	if err != nil {
		return 0, err
	}
	return float64(ds.Recovery().DurationNs) / 1e6, ds.Close()
}

// netCounts are the cumulative server- and transport-side counts a traced
// run reports per op.
type netCounts struct {
	frames, sheds, retries         uint64
	walBytes, snapBytes, snapshots uint64
}

func (c netCounts) sub(o netCounts) netCounts {
	return netCounts{c.frames - o.frames, c.sheds - o.sheds, c.retries - o.retries,
		c.walBytes - o.walBytes, c.snapBytes - o.snapBytes, c.snapshots - o.snapshots}
}

func (r *rig) counts() netCounts {
	c := netCounts{frames: r.srv.Stats().Frames(), sheds: r.srv.Stats().Sheds()}
	if r.tcp != nil {
		c.retries = r.tcp.Stats().Retries()
	}
	if r.ds != nil {
		s := r.ds.DurableStats()
		c.walBytes, c.snapBytes, c.snapshots = s.WALBytes(), s.SnapshotBytes(), s.Snapshots()
	}
	return c
}

// finish wires the pieces every TCP workload shares.
func (r *rig) finish(sp *spec, inst *instance) *instance {
	inst.rig = r
	inst.every = sp.every
	inst.simCycles = func() float64 { return r.heap.Stats().SimulatedSeconds * sim.Frequency }
	inst.counters = func() sim.Counters { return r.heap.Snapshot().Counters }
	inst.release = r.release
	return inst
}

// stopped reports, every 64 Ki iterations of a set-up loop, whether the
// process was told to stop.
func stopped(i int) bool { return i&0xffff == 0 && stop.Load() }

// guardLoad is the random-access workloads' state: one far slice, and the
// shadow model that says what each element must hold.
type guardLoad struct {
	xs         *farmem.Uint64s
	seq        []uint8 // writes so far to each element, mod 256
	seed       uint64
	writeShare uint64 // of 1024
}

func (g *guardLoad) op(w *worker) {
	r := w.next()
	i := w.lo + int((r>>32)*uint64(w.span)>>32)
	if r&1023 < g.writeShare {
		g.seq[i]++
		g.xs.Set(i, value(g.seed, i, g.seq[i]))
	} else if g.xs.At(i) != value(g.seed, i, g.seq[i]) {
		w.failed++
	}
}

// guardBuilder sets up hot-guard and the miss-* family: fill the slice,
// then one sequential read pass, so that every object has a remote copy,
// residents are clean and every element was checked once.
func guardBuilder(far, local, tier uint64, durable bool, writePct uint64) func(*runCtx, *spec, int, *tracer) (*instance, error) {
	return func(rc *runCtx, sp *spec, callers int, tr *tracer) (*instance, error) {
		far, local := rc.scaled(far), rc.scaled(local)
		cfg := rigConfig{heapBytes: far + objectBytes, localBytes: local, durable: durable}
		if tier > 0 {
			cfg.tierBytes = rc.scaled(tier)
		}
		r, err := newRig(rc, cfg, tr)
		if err != nil {
			return nil, err
		}
		n := int(far / 8)
		g := &guardLoad{seq: make([]uint8, n), seed: rc.seed, writeShare: writePct * 1024 / 100}
		if g.xs, err = farmem.NewUint64s(r.heap, n); err != nil {
			r.release()
			return nil, err
		}
		for i := 0; i < n && !stopped(i); i++ {
			g.xs.Set(i, value(g.seed, i, 0))
		}
		bad := 0
		g.xs.Range(func(i int, v uint64) bool {
			if v != value(g.seed, i, 0) {
				bad++
			}
			return !stopped(i)
		})
		if stop.Load() {
			r.release()
			return nil, errInterrupted
		}
		if bad > 0 {
			r.release()
			return nil, fmt.Errorf("%s: %d of %d elements wrong after fill", sp.name, bad, n)
		}
		inst := &instance{op: g.op}
		for k := 0; k < callers; k++ {
			// Disjoint index stripes; n/callers is a whole number of objects.
			inst.workers = append(inst.workers, newWorker(rc.seed, k, k*(n/callers), n/callers))
		}
		return r.finish(sp, inst), nil
	}
}

// scanLoad is scan-far's state: slices read round-robin by chunked,
// prefetching Range passes, never written after set-up.
type scanLoad struct {
	slices []*farmem.Uint64s
	sums   []uint64
}

func (s *scanLoad) op(w *worker) {
	k := w.seqno % len(s.slices)
	w.seqno++
	var sum uint64
	s.slices[k].Range(func(_ int, v uint64) bool {
		sum += v
		return true
	})
	if sum != s.sums[k] {
		w.failed++
	}
}

func buildScan(rc *runCtx, sp *spec, _ int, tr *tracer) (*instance, error) {
	far := rc.scaled(farBytes)
	per := int(far / scanSlices / 8) // elements per slice
	r, err := newRig(rc, rigConfig{heapBytes: far + objectBytes, localBytes: rc.scaled(localBytes)}, tr)
	if err != nil {
		return nil, err
	}
	s := &scanLoad{}
	for k := 0; k < scanSlices; k++ {
		xs, err := farmem.NewUint64s(r.heap, per)
		if err == nil && stop.Load() {
			err = errInterrupted
		}
		if err != nil {
			r.release()
			return nil, err
		}
		var sum uint64
		for i := 0; i < per; i++ {
			v := value(rc.seed, k*per+i, 0)
			xs.Set(i, v)
			sum += v
		}
		s.slices, s.sums = append(s.slices, xs), append(s.sums, sum)
	}
	w := newWorker(rc.seed, 0, 0, 0)
	for range s.slices {
		s.op(w)
	}
	if w.failed > 0 {
		r.release()
		return nil, fmt.Errorf("%s: %d of %d slice sums wrong after fill", sp.name, w.failed, scanSlices)
	}
	w.seqno = 0
	return r.finish(sp, &instance{op: s.op, workers: []*worker{w}}), nil
}

// compiledProg is one pre-compiled IR program with the answer the
// uncompiled program gives on plain local memory.
type compiledProg struct {
	prog        *ir.Program
	want        int64
	heap, local uint64
	stats       *compiler.Stats
}

// compiledLoad is compiled-run's state. One op runs every program once,
// each on a fresh runtime over the simulated link, so every op costs the
// same simulated cycles whatever the op count.
type compiledLoad struct {
	progs  []compiledProg
	cycles uint64
	sum    sim.Counters // the fields runTraced reports, summed over the runtimes
}

// accesses is how many guards, boundary checks and custody rejects ran.
func (c *compiledLoad) accesses() uint64 {
	return c.sum.Guards() + c.sum.BoundaryChecks + c.sum.CustodyRejects
}

// irProgram builds one uncompiled program; ws is its working set in bytes.
type irProgram struct {
	build func() *ir.Program
	ws    uint64
}

// irBuilders returns the three programs at sizes drawn from the seed.
func irBuilders(rc *runCtx) []irProgram {
	rng := newWorker(rc.seed, 99, 0, 0)
	size := func(base int64) int64 {
		n := int64(float64(base) * rc.scale)
		if n < 64 {
			n = 64
		}
		return n + int64(rng.next()%uint64(n/64+1))
	}
	triadN := size(2048)
	km := kmeans.Config{Points: size(112), Dims: 8, K: 4, Iterations: 2}
	is := nas.Scale{N: size(1408), Iterations: 2}
	return []irProgram{
		{func() *ir.Program { return stream.Program(stream.Triad, triadN) }, uint64(triadN) * 24},
		{func() *ir.Program { return kmeans.Program(km) }, km.WorkingSetBytes()},
		{func() *ir.Program {
			p, err := nas.Program(nas.IS, is)
			if err != nil {
				panic(err) // IS is a known kernel
			}
			return p
		}, nas.WorkingSetBytes(nas.IS, is)},
	}
}

func compilePrograms(rc *runCtx) ([]compiledProg, error) {
	var out []compiledProg
	for _, b := range irBuilders(rc) {
		ref, err := interp.Run(b.build(), interp.NewLocalBackend(sim.NewEnv()), interp.Options{})
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
		p := b.build()
		stats, err := compiler.Compile(p, compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: objectBytes, Prefetch: true})
		if err != nil {
			return nil, err
		}
		heap := (b.ws + 16*objectBytes) &^ (objectBytes - 1)
		local := (b.ws / 4) &^ (objectBytes - 1) // 25 % local memory
		if local < 8*objectBytes {
			local = 8 * objectBytes
		}
		out = append(out, compiledProg{prog: p, want: ref.Return, heap: heap, local: local, stats: stats})
	}
	return out, nil
}

func (c *compiledLoad) op(w *worker) {
	for i := range c.progs {
		p := &c.progs[i]
		env := sim.NewEnv()
		rt, err := core.NewRuntime(core.Config{Env: env, ObjectSize: objectBytes, HeapSize: p.heap, LocalBudget: p.local})
		if err != nil {
			panic(err) // sizes were validated by the set-up run
		}
		res, err := interp.Run(p.prog, interp.NewTrackFMBackend(rt), interp.Options{})
		rt.Pool().Close()
		if err != nil || res.Return != p.want {
			w.failed++
		}
		k := env.Counters.Snapshot()
		c.cycles += env.Clock.Cycles()
		c.sum.FastPathGuards += k.FastPathGuards
		c.sum.SlowPathGuards += k.SlowPathGuards
		c.sum.BoundaryChecks += k.BoundaryChecks
		c.sum.CustodyRejects += k.CustodyRejects
		c.sum.RemoteFetches += k.RemoteFetches
		c.sum.PrefetchHits += k.PrefetchHits
		c.sum.BytesFetched += k.BytesFetched
		c.sum.BytesEvicted += k.BytesEvicted
	}
}

func buildCompiled(rc *runCtx, sp *spec, _ int, _ *tracer) (*instance, error) {
	progs, err := compilePrograms(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	c := &compiledLoad{progs: progs}
	w := newWorker(rc.seed, 0, 0, 0)
	c.op(w)
	if w.failed > 0 {
		return nil, fmt.Errorf("%s: compiled programs disagree with the local reference run", sp.name)
	}
	*c = compiledLoad{progs: progs}
	return &instance{
		op:        c.op,
		workers:   []*worker{w},
		every:     sp.every,
		simCycles: func() float64 { return float64(c.cycles) },
		counters:  func() sim.Counters { return c.sum },
		release:   func() {},
	}, nil
}
