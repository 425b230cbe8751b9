package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"trackfm/internal/mem/bufpool"
)

// Estimator plan. A run sets the workload up setUps times (setup_s is the
// median), warms up for a sixth of -seconds, then measures one stretch of
// -seconds. Each worker cuts its stretch into slices of about probeEvery,
// a host probe after each; throughput is the median over the slices, a
// thousand of them in a 10 s run.
const (
	setUps     = 3
	probeBurst = 8       // host probes before and after each set-up
	maxSamples = 2 << 20 // latency samples kept per worker, preallocated
	maxSlices  = 1 << 14
)

// stop asks every worker loop to return after its current op; set on
// SIGINT/SIGTERM and by the -max-runtime watchdog.
var stop atomic.Bool

// worker is one closed-loop caller: a program thread that waits on its own
// dereference before issuing the next.
type worker struct {
	rng      uint64
	probe    prober // its own generator, so probing never shifts the op sequence
	lo, span int    // index stripe this worker draws from
	seqno    int    // ops issued, for round-robin workloads

	ops, failed uint64
	lat         []uint32 // sampled op latencies in ns
	slices      []slice
	probeWall   time.Duration // time spent in host probes, not the workload's
	panicked    any
}

// slice is a stretch of ops between two host probes.
type slice struct {
	opNs   float64 // wall ns per op over the stretch
	probe  float64 // what the host probe read right after it, ns per read
	latEnd int     // len(lat) when the stretch ended
}

func newWorker(seed uint64, k, lo, span int) *worker {
	rng := seed*0x9E3779B97F4A7C15 + uint64(k+1)*0xBF58476D1CE4E5B9 | 1
	return &worker{rng: rng, probe: prober{rng: ^rng | 1}, lo: lo, span: span}
}

// next is xorshift64: the generator must cost well under the 100 ns op it
// feeds on hot-guard.
func (w *worker) next() uint64 {
	x := w.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	w.rng = x
	return x * 0x2545F4914F6CDD1D
}

func (w *worker) sample(d time.Duration) {
	if len(w.lat) < cap(w.lat) {
		if d > 1<<32-1 {
			d = 1<<32 - 1
		}
		w.lat = append(w.lat, uint32(d))
	}
}

// caught turns a panic inside an op (an unrecoverable transport error, a
// runtime fault) into a failed op instead of a dead process with a live
// temp dir.
func (w *worker) caught() {
	if r := recover(); r != nil {
		w.panicked = r
		w.failed++
		w.ops++
	}
}

// run issues ops: exactly n when n > 0, otherwise until the deadline. Every
// every-th op is timed and, when tr is set, recorded as an op span. About
// every probeEvery the worker stops to probe the host.
func (w *worker) run(op func(*worker), every, n int, until time.Time, tr *tracer) {
	defer w.caught()
	now := time.Now()
	sliceStart, sliceOps, issued := now, w.ops, 0
	for {
		t0 := now
		idx := int32(-1)
		if tr != nil {
			idx = tr.beginOp(t0)
		}
		op(w)
		now = time.Now()
		if tr != nil {
			tr.endOp(idx, now)
		}
		w.sample(now.Sub(t0))
		k := 1
		for ; k < every && (n == 0 || issued+k < n); k++ {
			op(w)
		}
		w.ops += uint64(k)
		issued += k
		if every > 1 {
			now = time.Now()
		}
		done := stop.Load() || (n > 0 && issued >= n) || (n == 0 && !now.Before(until))
		if d := now.Sub(sliceStart); done || d >= probeEvery {
			took, perRead := w.probe.run()
			w.probeWall += took
			w.slices = append(w.slices, slice{float64(d) / float64(w.ops-sliceOps), perRead, len(w.lat)})
			now = time.Now()
			sliceStart, sliceOps = now, w.ops
		}
		if done {
			return
		}
	}
}

// Host noise. On a shared 2-vCPU host the same code runs 1.3x to 2.5x
// slower for seconds at a time, depending on what the neighbours do to the
// shared cache and memory system, and that swamps any change a commit
// makes. So each worker interleaves its ops with a fixed probe that uses no
// repository code, random reads over 8 MiB, and every wall time is divided
// by how slow the host was when it was taken:
//
//	factor = 1 - memShare + memShare * probe / refProbeNs
//
// where memShare (per workload, in specs) is the share of an op's time that
// moves with the probe. Wall metrics therefore read as if taken on a host
// whose probe reads refProbeNs; the raw probe is reported beside them.
const (
	probeEvery = 10 * time.Millisecond
	probeReads = 100_000
	refProbeNs = 8.0
)

var probeArr = func() []uint64 {
	a := make([]uint64, 1<<20)
	for i := range a {
		a[i] = uint64(i) // touch every page: untouched ones all map the zero page
	}
	return a
}()

// prober is one goroutine's host probe: its generator, and the sum that
// keeps the compiler from dropping the reads.
type prober struct{ rng, sum uint64 }

// run runs the probe once and returns how long it took in all and per read.
func (p *prober) run() (time.Duration, float64) {
	t0 := time.Now()
	x, s := p.rng, p.sum
	for i := 0; i < probeReads; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		s += probeArr[x&uint64(len(probeArr)-1)]
	}
	p.rng, p.sum = x, s
	d := time.Since(t0)
	return d, float64(d.Nanoseconds()) / probeReads
}

func hostFactor(memShare, probeNs float64) float64 {
	return 1 - memShare + memShare*probeNs/refProbeNs
}

// window is what one measured stretch cost the whole process.
type window struct {
	ops, failed uint64
	wall, cpu   time.Duration // cpu excludes the host probes
	mallocs     uint64
	simCycles   float64
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs every worker at once, each for n ops when n > 0 and for d
// otherwise, and returns what the stretch cost, client and server
// goroutines together. Latency samples and slices start afresh.
func (inst *instance) measure(n int, d time.Duration, tr *tracer) window {
	var before, after runtime.MemStats
	var ops0, failed0 uint64
	var probe0 time.Duration
	for _, w := range inst.workers {
		if w.lat == nil {
			w.lat = make([]uint32, 0, maxSamples)
			w.slices = make([]slice, 0, maxSlices)
		}
		w.lat, w.slices = w.lat[:0], w.slices[:0]
		ops0 += w.ops
		failed0 += w.failed
		probe0 += w.probeWall
	}
	sim0 := inst.simCycles()
	runtime.ReadMemStats(&before)
	cpu0, t0 := cpuTime(), time.Now()
	until := t0.Add(d)
	var wg sync.WaitGroup
	for _, w := range inst.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(inst.op, inst.every, n, until, tr)
		}()
	}
	wg.Wait()
	win := window{wall: time.Since(t0), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&after)
	win.mallocs = after.Mallocs - before.Mallocs
	win.simCycles = inst.simCycles() - sim0
	probed := -probe0
	for _, w := range inst.workers {
		win.ops += w.ops
		win.failed += w.failed
		probed += w.probeWall
	}
	win.ops -= ops0
	win.failed -= failed0
	win.cpu -= probed // a probe is one thread computing: its wall time is its CPU time
	return win
}

// estimate is the last stretch's wall metrics with the host's slowness
// taken out slice by slice.
type estimate struct {
	opsPerS  float64
	p50, p99 float64 // of the sampled op latencies, ns
	samples  int
	factor   float64 // mean host factor over the slices
	probeNs  float64 // median raw probe reading
}

func (inst *instance) estimate(memShare float64) estimate {
	var opNs, probes, lat []float64
	var factors float64
	for _, w := range inst.workers {
		from := 0
		for _, s := range w.slices {
			f := hostFactor(memShare, s.probe)
			opNs = append(opNs, s.opNs/f)
			probes = append(probes, s.probe)
			factors += f
			for _, l := range w.lat[from:s.latEnd] {
				lat = append(lat, float64(l)/f)
			}
			from = s.latEnd
		}
	}
	sort.Float64s(lat)
	return estimate{
		opsPerS: float64(len(inst.workers)) * 1e9 / median(opNs),
		p50:     quantile(lat, 0.5),
		p99:     quantile(lat, 0.99),
		samples: len(lat),
		factor:  factors / float64(len(opNs)),
		probeNs: median(probes),
	}
}

func (inst *instance) panicked() any {
	for _, w := range inst.workers {
		if w.panicked != nil {
			return w.panicked
		}
	}
	return nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// heapInuseMiB is what the Go heap holds after two collections; the second
// empties what the first moved to sync.Pool victim caches. It is the whole
// heap, the probe's 8 MiB included: the difference across compiled-run's
// set-up is 70 KiB, too little to read to within 2 %.
func heapInuseMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// result is one run's outcome in the shape the harness reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) put(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) count(win window) {
	r.Attempted += win.ops
	r.Failed += win.failed
}

// setUp builds the workload setUps times, keeping the last, and returns the
// median build time with the host's slowness taken out. The host is probed
// right before and right after each build.
func setUp(rc *runCtx, sp *spec) (*instance, float64, error) {
	var inst *instance
	var took []float64
	probe := prober{rng: rc.seed | 1}
	burst := func() (sum float64) {
		for i := 0; i < probeBurst; i++ {
			_, ns := probe.run()
			sum += ns
		}
		return sum
	}
	for i := 0; i < setUps; i++ {
		if inst != nil {
			inst.release()
		}
		probed := burst()
		t0 := time.Now()
		var err error
		if inst, err = sp.build(rc, sp, sp.workers, nil); err != nil {
			return nil, 0, err
		}
		d := time.Since(t0).Seconds()
		probed += burst()
		took = append(took, d/hostFactor(sp.memShare, probed/(2*probeBurst)))
		if stop.Load() {
			inst.release()
			return nil, 0, errInterrupted
		}
	}
	return inst, median(took), nil
}

var errInterrupted = errors.New("interrupted")

// check reports why a finished stretch cannot be used.
func (inst *instance) check(name string) error {
	if p := inst.panicked(); p != nil {
		return fmt.Errorf("%s: op panicked: %v", name, p)
	}
	if stop.Load() {
		return errInterrupted
	}
	return nil
}

// runTimed is the untraced run: the end-to-end metrics a user of the
// system would see, over the plain RemoteAddr path.
func runTimed(rc *runCtx, sp *spec, seconds float64) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	inst, setupS, err := setUp(rc, sp)
	if err != nil {
		return nil, err
	}
	defer inst.release()
	res.put("setup_s", setupS, "s")
	res.put("setup_mem_mb", heapInuseMiB(), "MiB")

	d := time.Duration(seconds * float64(time.Second))
	res.count(inst.measure(0, d/6, nil)) // warm-up: caches fill, admission's EWMA settles
	win := inst.measure(0, d, nil)
	res.count(win)
	if err := inst.check(sp.name); err != nil {
		return nil, err
	}
	est := inst.estimate(sp.memShare)
	res.put("ops_per_s", est.opsPerS, "1/s")
	res.put("op_p50_us", est.p50/1e3, "us")
	res.put("cpu_us_per_op", float64(win.cpu.Nanoseconds())/1e3/float64(win.ops)/est.factor, "us")
	res.put("sim_cycles_per_op", win.simCycles/float64(win.ops), "cycles")
	res.Correct = res.Failed == 0
	fmt.Fprintf(logw, "%s: %d ops in %v, raw %.0f ops/s, %d latency samples, host probe %.2f ns/read (factor %.3f)\n",
		sp.name, win.ops, win.wall.Round(time.Millisecond), float64(win.ops)/win.wall.Seconds(), est.samples, est.probeNs, est.factor)
	return res, nil
}

// runTraced is the per-layer run. The same fixed op sequence runs twice,
// one worker each time: first over the plain path (its speed is the
// denominator of the tracing overhead, its allocation count is the
// program's), then over the two decorators with spans on. The isolated
// layer timings follow.
func runTraced(rc *runCtx, sp *spec, seconds float64, outDir string) (*result, error) {
	res := &result{Metrics: map[string]metric{}}
	n := int(float64(sp.tracedOps) * seconds / 10)
	if n < 2*sp.every {
		n = 2 * sp.every
	}

	plain, err := sp.build(rc, sp, 1, nil)
	if err != nil {
		return nil, err
	}
	res.count(plain.measure(n/4, 0, nil))
	base := plain.measure(n, 0, nil)
	res.count(base)
	var baseEst estimate
	if err = plain.check(sp.name); err == nil {
		baseEst = plain.estimate(sp.memShare)
	}
	plain.release()
	if err != nil {
		return nil, err
	}

	tr := newTracer(n/sp.every*sp.spans + 1024)
	inst, err := sp.build(rc, sp, 1, tr)
	if err != nil {
		return nil, err
	}
	defer inst.release()
	res.count(inst.measure(n/4, 0, nil))

	var c0 netCounts
	if inst.rig != nil {
		c0 = inst.rig.counts()
	}
	h0 := inst.counters()
	pool0 := bufpool.Wire.Stats()
	tr.on.Store(true)
	traced := inst.measure(n, 0, tr)
	tr.on.Store(false)
	res.count(traced)
	if err := inst.check(sp.name); err != nil {
		return nil, err
	}
	est := inst.estimate(sp.memShare)
	ops := float64(traced.ops)

	spans, dropped := tr.recorded()
	if dropped > 0 {
		fmt.Fprintf(logw, "%s: span buffer full, %d spans dropped\n", sp.name, dropped)
	}
	self, opSpans, opTotal := selfTimes(spans)
	perOp := func(ns int64) float64 { return float64(ns) / 1e3 / float64(opSpans) / est.factor }
	res.put("farmem.self_us_per_op", perOp(self[layerClient]), "us")
	res.put("fabric.self_us_per_op", perOp(self[layerFabric]), "us")
	res.put("remote.self_us_per_op", perOp(self[layerRemote]), "us")
	res.put("bench.op_span_mean_us", perOp(opTotal), "us")
	res.put("bench.op_spans", float64(opSpans), "count")
	res.put("farmem.op_p99_us", baseEst.p99/1e3, "us")
	res.put("bench.latency_samples", float64(baseEst.samples), "count")
	res.put("bench.allocs_per_op", float64(base.mallocs)/float64(base.ops), "1")
	res.put("bench.trace_overhead_ratio", est.opsPerS/baseEst.opsPerS, "1")
	res.put("host.mem_probe_ns", est.probeNs, "ns")

	pool1 := bufpool.Wire.Stats()
	res.put("bufpool.miss_ratio", ratio(pool1.Misses-pool0.Misses, pool1.Gets-pool0.Gets), "1")

	var c netCounts
	h := inst.counters().Delta(h0)
	var admP99, storeBytes, recoveryMs, thrash float64
	if r := inst.rig; r != nil {
		c = r.counts().sub(c0)
		admP99 = r.adm.Stats().QueueDelay().Quantile(0.99) / 1e3
		storeBytes = float64(r.mem.Bytes())
		thrash = r.heap.Pressure().ThrashRatio
		if r.ds != nil {
			if recoveryMs, err = r.recoveryMs(); err != nil {
				return nil, err
			}
		}
	}
	// Bytes over the link: the decorator counts them on the TCP path, SimLink
	// counts them itself on compiled-run, and neither sees the other's.
	pushed := tr.bytesPushed.Load()
	res.put("bench.net_bytes_per_op", float64(tr.bytesFetched.Load()+pushed+h.BytesFetched+h.BytesEvicted)/ops, "B")
	res.put("farmem.fast_guards_per_op", float64(h.FastPathGuards)/ops, "1")
	res.put("farmem.slow_guards_per_op", float64(h.SlowPathGuards)/ops, "1")
	res.put("aifm.fetches_per_op", float64(h.RemoteFetches)/ops, "1")
	res.put("aifm.evict_bytes_per_op", float64(pushed)/ops, "B")
	res.put("aifm.prefetch_hits_per_op", float64(h.PrefetchHits)/ops, "1")
	res.put("aifm.thrash_ratio", thrash, "1")
	res.put("ctier.hit_ratio", ratio(h.TierHits, h.TierHits+h.TierMisses), "1")
	res.put("fabric.frames_per_op", float64(c.frames)/ops, "1")
	res.put("fabric.retries_per_op", float64(c.retries)/ops, "1")
	res.put("fabric.sheds", float64(c.sheds), "count")
	res.put("fabric.adm_queue_delay_p99_us", admP99, "us")
	res.put("remote.wal_bytes_per_user_byte", ratio(c.walBytes, pushed), "1")
	res.put("remote.snapshot_bytes_per_user_byte", ratio(c.snapBytes, pushed), "1")
	res.put("remote.snapshots", float64(c.snapshots), "count")
	res.put("remote.recovery_ms", recoveryMs, "ms")
	res.put("remote.store_bytes", storeBytes, "B")

	if err := tr.dump(outDir, sp.name, rc.seed); err != nil {
		return nil, err
	}
	if err := timeLayers(rc, res, seconds); err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
