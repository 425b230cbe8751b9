package trackfm_test

// Benchmarks regenerating every table and figure of the paper (wrapping
// the experiment harness) plus Go-level micro-benchmarks of the runtime
// primitives. Run with:
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigN/BenchmarkTableN executes the full experiment once
// per iteration; the reported ns/op is the wall time to regenerate that
// figure, not a simulated quantity (simulated results are printed by
// cmd/trackfm-bench and asserted by the internal/bench tests).

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"trackfm/farmem"
	"trackfm/internal/aifm"
	"trackfm/internal/bench"
	"trackfm/internal/compiler"
	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/fastswap"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/dist"
	"trackfm/internal/workloads/hashmap"
	"trackfm/internal/workloads/kmeans"
	"trackfm/internal/workloads/nas"
	"trackfm/internal/workloads/stream"
)

func benchExperiment(b *testing.B, id string) {
	e, err := bench.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if t := e.Run(bench.Scale{Factor: 1}); len(t.Rows) == 0 {
			b.Fatalf("experiment %s produced no rows", id)
		}
	}
}

func BenchmarkTable1GuardCosts(b *testing.B)       { benchExperiment(b, "table1") }
func BenchmarkTable2PrimitiveCosts(b *testing.B)   { benchExperiment(b, "table2") }
func BenchmarkFig6CostModelCrossover(b *testing.B) { benchExperiment(b, "fig6") }
func BenchmarkFig7LoopChunking(b *testing.B)       { benchExperiment(b, "fig7") }
func BenchmarkFig8KMeansChunking(b *testing.B)     { benchExperiment(b, "fig8") }
func BenchmarkFig9ObjectSizeHashmap(b *testing.B)  { benchExperiment(b, "fig9") }
func BenchmarkFig10ObjectSizeStream(b *testing.B)  { benchExperiment(b, "fig10") }
func BenchmarkFig11Prefetching(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12VsFastswapStream(b *testing.B)  { benchExperiment(b, "fig12") }
func BenchmarkFig13IOAmplification(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14Analytics(b *testing.B)         { benchExperiment(b, "fig14") }
func BenchmarkFig15AnalyticsChunking(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16Memcached(b *testing.B)         { benchExperiment(b, "fig16") }
func BenchmarkFig17NAS(b *testing.B)               { benchExperiment(b, "fig17") }
func BenchmarkCompilePipeline(b *testing.B)        { benchExperiment(b, "compile") }

// --- Micro-benchmarks: real Go cost of the runtime primitives ---

func newBenchRuntime(b *testing.B, objSize int) *core.Runtime {
	b.Helper()
	rt, err := core.NewRuntime(core.Config{
		Env: sim.NewEnv(), ObjectSize: objSize,
		HeapSize: 1 << 24, LocalBudget: 1 << 24,
	})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

func BenchmarkGuardFastPathLoad(b *testing.B) {
	rt := newBenchRuntime(b, 4096)
	p := rt.MustMalloc(4096)
	rt.StoreU64(p, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += rt.LoadU64(p)
	}
	_ = sink
}

func BenchmarkGuardFastPathStore(b *testing.B) {
	rt := newBenchRuntime(b, 4096)
	p := rt.MustMalloc(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt.StoreU64(p, uint64(i))
	}
}

// The next four are fmbench's per-layer rows (core.load_resident_ns,
// core.store_resident_ns, core.cursor_load_ns, and scan-far's Range with
// everything resident) as go-test benchmarks: same access patterns, so a
// profile taken here explains a ledger row.

const benchElems = 64 << 10

func newFilledArray(b *testing.B) (*core.Runtime, core.Ptr) {
	rt := newBenchRuntime(b, 4096)
	p := rt.MustMalloc(benchElems * 8)
	for i := uint64(0); i < benchElems; i++ {
		rt.StoreU64(p.Add(i*8), i)
	}
	return rt, p
}

func BenchmarkRuntimeLoadU64(b *testing.B) {
	rt, p := newFilledArray(b)
	b.ReportAllocs()
	b.ResetTimer()
	var sink, j uint64
	for i := 0; i < b.N; i++ {
		sink += rt.LoadU64(p.Add(j % benchElems * 8))
		j += 521
	}
	_ = sink
}

// BenchmarkRuntimeLoadU64Parallel is BenchmarkRuntimeLoadU64 from every
// b.RunParallel goroutine at once, each striding over its own range of the
// array, so the goroutines share the pool's stripes but no element.
func BenchmarkRuntimeLoadU64Parallel(b *testing.B) {
	rt, p := newFilledArray(b)
	span := uint64(benchElems / runtime.GOMAXPROCS(0))
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := next.Add(1) - 1
		base = base % (benchElems / span) * span
		var sink, j uint64
		for pb.Next() {
			sink += rt.LoadU64(p.Add((base + j%span) * 8))
			j += 521
		}
		_ = sink
	})
}

// BenchmarkMeterLoadU64 and BenchmarkMeterLoadU64Parallel are the pair
// above for a caller that owns a core.Meter, as a compiled program's
// backend does: the guard's charges are plain adds, one meter per
// goroutine, flushed when the loop ends.
func BenchmarkMeterLoadU64(b *testing.B) {
	rt, p := newFilledArray(b)
	m := rt.NewMeter()
	b.ReportAllocs()
	b.ResetTimer()
	var sink, j uint64
	for i := 0; i < b.N; i++ {
		sink += m.LoadU64(p.Add(j % benchElems * 8))
		j += 521
	}
	m.Flush()
	_ = sink
}

func BenchmarkMeterLoadU64Parallel(b *testing.B) {
	rt, p := newFilledArray(b)
	span := uint64(benchElems / runtime.GOMAXPROCS(0))
	var next atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		base := next.Add(1) - 1
		base = base % (benchElems / span) * span
		m := rt.NewMeter()
		var sink, j uint64
		for pb.Next() {
			sink += m.LoadU64(p.Add((base + j%span) * 8))
			j += 521
		}
		m.Flush()
		_ = sink
	})
}

func BenchmarkRuntimeStoreU64(b *testing.B) {
	rt, p := newFilledArray(b)
	b.ReportAllocs()
	b.ResetTimer()
	var j uint64
	for i := 0; i < b.N; i++ {
		rt.StoreU64(p.Add(j%benchElems*8), j)
		j += 521
	}
}

// BenchmarkMeterStoreU64 is BenchmarkRuntimeStoreU64 charged to a
// core.Meter.
func BenchmarkMeterStoreU64(b *testing.B) {
	rt, p := newFilledArray(b)
	m := rt.NewMeter()
	b.ReportAllocs()
	b.ResetTimer()
	var j uint64
	for i := 0; i < b.N; i++ {
		m.StoreU64(p.Add(j%benchElems*8), j)
		j += 521
	}
	m.Flush()
}

// BenchmarkCursorLoadU64 opens a cursor per 4096 elements (eight objects),
// so ChunkInit and the crossings are in the per-element figure.
func BenchmarkCursorLoadU64(b *testing.B) {
	rt, p := newFilledArray(b)
	const pass = 4096
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i += pass {
		cur := rt.NewCursor(p, 8, true)
		for j := uint64(0); j < pass; j++ {
			sink += cur.LoadU64(j)
		}
		cur.Close()
	}
	_ = sink
}

// BenchmarkUint64sRange reports ns per element of a resident Range pass.
func BenchmarkUint64sRange(b *testing.B) {
	h, err := farmem.New(farmem.Config{HeapBytes: 1 << 24, LocalBytes: 1 << 24})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	xs, err := farmem.NewUint64s(h, benchElems)
	if err != nil {
		b.Fatal(err)
	}
	xs.Fill(1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i += benchElems {
		xs.Range(func(_ int, v uint64) bool { sink += v; return true })
	}
	_ = sink
}

// BenchmarkRangeLoopback crosses the real TCP path: a heap dialed by
// RemoteAddr to an in-process fabric.Server (admission on, as fmserver
// runs it) holds 64 slices of 128 objects at 4x overcommit, and one
// iteration is one checked Range pass over the next slice — every object
// far, every one prefetched. frames/flush is the server's replies per
// socket write: 1 when each fetch is its own round trip.
func BenchmarkRangeLoopback(b *testing.B) {
	const slices, objs, obj = 64, 128, 4096
	const per = objs * obj / 8
	srv := fabric.NewServer(remote.NewStore())
	srv.EnableAdmission(fabric.AdmissionConfig{MaxQueue: 256, Target: uint64(5 * time.Millisecond), Interval: uint64(100 * time.Millisecond)})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	h, err := farmem.New(farmem.Config{HeapBytes: slices*objs*obj + obj, LocalBytes: slices * objs * obj / 4,
		ObjectBytes: obj, RemoteConfig: fabric.RemoteConfig{RemoteAddr: addr}})
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	xs := make([]*farmem.Uint64s, slices)
	for k := range xs {
		if xs[k], err = farmem.NewUint64s(h, per); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < per; i++ {
			xs[k].Set(i, uint64(k+i))
		}
	}
	b.ReportAllocs()
	frames, flushes := srv.Stats().Frames(), srv.Stats().Flushes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % slices
		var sum uint64
		xs[k].Range(func(_ int, v uint64) bool { sum += v; return true })
		if want := uint64(per*k + per*(per-1)/2); sum != want {
			b.Fatalf("slice %d: sum %d, want %d", k, sum, want)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(srv.Stats().Frames()-frames)/float64(srv.Stats().Flushes()-flushes), "frames/flush")
}

func BenchmarkCursorChunkedLoad(b *testing.B) {
	rt := newBenchRuntime(b, 4096)
	const n = 1 << 16
	p := rt.MustMalloc(n * 8)
	for i := uint64(0); i < n; i++ {
		rt.StoreU64(p.Add(i*8), i)
	}
	cur := rt.NewCursor(p, 8, false)
	defer cur.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += cur.LoadU64(uint64(i) % n)
	}
	_ = sink
}

func BenchmarkPoolAccessResident(b *testing.B) {
	env := sim.NewEnv()
	link := fabric.NewSimLink(env, fabric.BackendTCP)
	pool, err := aifm.NewPool(aifm.Config{
		Env: env, RemoteConfig: fabric.RemoteConfig{Transport: link},
		ObjectSize: 4096, HeapSize: 1 << 24, LocalBudget: 1 << 24,
	})
	if err != nil {
		b.Fatal(err)
	}
	var buf [8]byte
	if err := pool.Access(0, 0, buf[:], false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pool.Access(0, 0, buf[:], false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFastswapMappedAccess(b *testing.B) {
	sw, err := fastswap.New(fastswap.Config{
		Env: sim.NewEnv(), HeapSize: 1 << 24, LocalBudget: 1 << 24,
	})
	if err != nil {
		b.Fatal(err)
	}
	off := sw.MustMalloc(4096)
	sw.StoreU64(off, 1)
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += sw.LoadU64(off)
	}
	_ = sink
}

func BenchmarkZipfNext(b *testing.B) {
	z, err := dist.NewZipf(1_000_000, 1.02, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += z.Next()
	}
	_ = sink
}

func BenchmarkHashmapGet(b *testing.B) {
	tbl, err := hashmap.Build(interp.NewTrackFMBackend(newBenchRuntime(b, 256)), 10_000)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tbl.Get(uint64(i%10_000) + 1); !ok {
			b.Fatal("miss")
		}
	}
}

// --- What the emulator itself costs: the fmbench compiled-run op, from
// here, so `go test -bench CompiledRun -cpuprofile` profiles it without
// touching benchmarks/ ---

// compiledBenchProg is one compiled program with the runtime sizes
// compiled-run gives it: heap = working set + 16 objects, 25 % local.
type compiledBenchProg struct {
	name        string
	prog        *ir.Program
	heap, local uint64
}

// compiledBenchProgs compiles compiled-run's three programs — STREAM
// Triad, k-means, NAS IS — at its base sizes.
func compiledBenchProgs(b *testing.B) []compiledBenchProg {
	b.Helper()
	km := kmeans.Config{Points: 112, Dims: 8, K: 4, Iterations: 2}
	is := nas.Scale{N: 1408, Iterations: 2}
	isProg, err := nas.Program(nas.IS, is)
	if err != nil {
		b.Fatal(err)
	}
	var out []compiledBenchProg
	for _, p := range []struct {
		name string
		prog *ir.Program
		ws   uint64
	}{
		{"triad", stream.Program(stream.Triad, 2048), 2048 * 24},
		{"kmeans", kmeans.Program(km), km.WorkingSetBytes()},
		{"is", isProg, nas.WorkingSetBytes(nas.IS, is)},
	} {
		if _, err := compiler.Compile(p.prog, compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Prefetch: true}); err != nil {
			b.Fatal(err)
		}
		local := (p.ws / 4) &^ 4095
		if local < 8*4096 {
			local = 8 * 4096
		}
		out = append(out, compiledBenchProg{p.name, p.prog, (p.ws + 16*4096) &^ 4095, local})
	}
	return out
}

func (p compiledBenchProg) newRuntime(b *testing.B) *core.Runtime {
	rt, err := core.NewRuntime(core.Config{Env: sim.NewEnv(), ObjectSize: 4096, HeapSize: p.heap, LocalBudget: p.local})
	if err != nil {
		b.Fatal(err)
	}
	return rt
}

// BenchmarkCompiledRun is one compiled-run op per iteration: each program
// on a fresh runtime over SimLink; then each program alone, so a change to
// the interpreter shows which kernel pays.
func BenchmarkCompiledRun(b *testing.B) {
	progs := compiledBenchProgs(b)
	run := func(b *testing.B, progs []compiledBenchProg) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				rt := p.newRuntime(b)
				if _, err := interp.Run(p.prog, interp.NewTrackFMBackend(rt), interp.Options{}); err != nil {
					b.Fatal(err)
				}
				rt.Pool().Close()
			}
		}
	}
	b.Run("all", func(b *testing.B) { run(b, progs) })
	for _, p := range progs {
		b.Run(p.name, func(b *testing.B) { run(b, []compiledBenchProg{p}) })
	}
}

// BenchmarkNewRuntime is the set-up half of that op alone.
func BenchmarkNewRuntime(b *testing.B) {
	progs := compiledBenchProgs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			p.newRuntime(b).Pool().Close()
		}
	}
}

// BenchmarkInterpRun is the interpreter alone: the same three programs
// on plain local memory (a fresh backend each, as its arena only grows).
func BenchmarkInterpRun(b *testing.B) {
	progs := compiledBenchProgs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := interp.Run(p.prog, interp.NewLocalBackend(sim.NewEnv()), interp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
