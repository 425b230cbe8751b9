package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"trackfm/internal/aifm"
	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/mem/ctier"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// Isolated layer timings: each layer's public functions are called in a
// loop with the layer beneath replaced by a null stub, so a row prices that
// layer alone. The in-process layers run with GOMAXPROCS pinned to 1 and
// MemStats deltas taken around the loop; the fabric rows keep the default,
// because the server's goroutines are part of what they measure.

// sink keeps the compiler from removing a timed call.
var sink uint64

// timeLoop calls fn in doubling batches until one batch lasts at least
// budget, and returns that batch's ns and mallocs per call.
func timeLoop(budget time.Duration, fn func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	for n := 1; ; n *= 2 {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&after)
		if el >= budget || n >= 1<<30 || stop.Load() {
			return float64(el.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
	}
}

// sampleLoop calls fn for about budget and returns each call's latency in
// ns, sorted.
func sampleLoop(budget time.Duration, fn func()) []float64 {
	lat := make([]float64, 0, 1<<16)
	end := time.Now().Add(budget)
	for now := time.Now(); now.Before(end) && len(lat) < cap(lat) && !stop.Load(); {
		fn()
		t1 := time.Now()
		lat = append(lat, float64(t1.Sub(now)))
		now = t1
	}
	sort.Float64s(lat)
	return lat
}

// objectData is one object as the workloads fill it.
func objectData(seed uint64) []byte {
	raw := make([]byte, objectBytes)
	for i := 0; i < objectBytes/8; i++ {
		binary.LittleEndian.PutUint64(raw[i*8:], value(seed, i, 0))
	}
	return raw
}

func timeLayers(rc *runCtx, res *result, seconds float64) error {
	budget := time.Duration(seconds * 0.015 * float64(time.Second))
	raw := objectData(rc.seed)
	dst := make([]byte, objectBytes)

	prev := runtime.GOMAXPROCS(1)
	err := timeLocalLayers(rc, res, budget, raw, dst)
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	if err := timeFabric(rc, res, budget, raw, dst); err != nil {
		return err
	}
	if err := timeLoopback(res, budget, raw, dst); err != nil {
		return err
	}
	if stop.Load() {
		return errInterrupted
	}
	return nil
}

func timeLocalLayers(rc *runCtx, res *result, budget time.Duration, raw, dst []byte) error {
	// core over a null transport, everything resident.
	const elems = 64 << 10
	rt, err := core.NewRuntime(core.Config{Env: sim.NewEnv(), ObjectSize: objectBytes,
		HeapSize: 2 * elems * 8, LocalBudget: 2 * elems * 8, Transport: nullTransport{}})
	if err != nil {
		return err
	}
	p := rt.MustMalloc(elems * 8)
	for i := uint64(0); i < elems; i++ {
		rt.StoreU64(p.Add(i*8), i)
	}
	i := uint64(0)
	ns, allocs := timeLoop(budget, func() { sink += rt.LoadU64(p.Add(i % elems * 8)); i += 521 })
	res.put("core.load_resident_ns", ns, "ns")
	res.put("core.load_allocs", allocs, "1")
	ns, _ = timeLoop(budget, func() { rt.StoreU64(p.Add(i%elems*8), i); i += 521 })
	res.put("core.store_resident_ns", ns, "ns")
	const pass = 4096 // eight objects per cursor
	ns, allocs = timeLoop(budget, func() {
		cur := rt.NewCursor(p, 8, true)
		for j := uint64(0); j < pass; j++ {
			sink += cur.LoadU64(j)
		}
		cur.Close()
	})
	res.put("core.cursor_load_ns", ns/pass, "ns")
	res.put("core.cursor_load_allocs", allocs/pass, "1")

	// aifm over a null transport: resident localize, then a 64-slot pool
	// cycling over 256 objects so every localize is a miss plus an eviction.
	const objs, slots = 256, 64
	pool, err := aifm.NewPool(aifm.Config{Env: sim.NewEnv(), RemoteConfig: fabric.RemoteConfig{Transport: nullTransport{}},
		ObjectSize: objectBytes, HeapSize: objs * objectBytes, LocalBudget: slots * objectBytes})
	if err != nil {
		return err
	}
	defer pool.Close()
	for id := aifm.ObjectID(0); id < objs; id++ {
		pool.Localize(id, true)
	}
	resident := aifm.ObjectID(objs - 1)
	ns, _ = timeLoop(budget, func() { a, _ := pool.Localize(resident, false); sink += a })
	res.put("aifm.localize_resident_ns", ns, "ns")
	id := aifm.ObjectID(0)
	for ; id < objs; id++ {
		pool.Localize(id, false) // flush the dirty residents
	}
	ns, allocs = timeLoop(budget, func() { a, _ := pool.Localize(id%objs, false); sink += a; id++ })
	res.put("aifm.miss_null_ns", ns, "ns")
	res.put("aifm.miss_null_allocs", allocs, "1")
	ns, _ = timeLoop(budget, func() { a, _ := pool.Localize(id%objs, true); sink += a; id++ })
	res.put("aifm.dirty_miss_null_ns", ns, "ns")

	// ctier: the codec alone, then the tier around it.
	var enc ctier.Encoder
	block := enc.Encode(nil, raw)
	ns, _ = timeLoop(budget, func() { block = enc.Encode(block[:cap(block)], raw) })
	res.put("ctier.encode_mb_per_s", objectBytes/ns*1e3, "MB/s")
	ns, _ = timeLoop(budget, func() {
		if _, err := ctier.Decode(dst, block); err != nil {
			panic(err) // the block was encoded two lines up
		}
	})
	res.put("ctier.decode_mb_per_s", objectBytes/ns*1e3, "MB/s")
	res.put("ctier.compression_ratio", objectBytes/float64(len(block)), "1")
	const keys = 1024
	tier := ctier.New(ctier.Config{Budget: 2 * keys * objectBytes})
	var putNs, getNs time.Duration
	rounds := 0
	for putNs+getNs < 2*budget {
		t0 := time.Now()
		for k := uint64(0); k < keys; k++ {
			tier.Put(k, raw)
		}
		t1 := time.Now()
		for k := uint64(0); k < keys; k++ {
			if !tier.Get(k, dst) {
				return fmt.Errorf("ctier: key %d missing from a tier within budget", k)
			}
		}
		putNs, getNs, rounds = putNs+t1.Sub(t0), getNs+time.Since(t1), rounds+1
	}
	res.put("ctier.put_ns", float64(putNs.Nanoseconds())/float64(rounds*keys), "ns")
	res.put("ctier.get_ns", float64(getNs.Nanoseconds())/float64(rounds*keys), "ns")

	ns, _ = timeLoop(budget, func() { l := bufpool.Get(objectBytes); l.Release() })
	res.put("bufpool.get_release_ns", ns, "ns")

	// remote: the three stores, same-size overwrites and reads of 4 KiB.
	k := uint64(0)
	store := func(name string, st fabric.BlobStore, reads bool) error {
		var err error
		ns, _ := timeLoop(budget, func() { err = st.Put(k%keys, raw); k++ })
		res.put("remote."+name+"_put_ns", ns, "ns")
		if err != nil || !reads {
			return err
		}
		ns, _ = timeLoop(budget, func() { _, err = st.Get(k%keys, dst); k++ })
		res.put("remote."+name+"_get_ns", ns, "ns")
		return err
	}
	if err := store("store", remote.NewStore(), true); err != nil {
		return err
	}
	if err := store("compressed", remote.NewCompressedStore(), true); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(rc.tmpDir, "fmbench-layer-")
	if err != nil {
		return err
	}
	release := rc.res.add(func() { os.RemoveAll(dir) })
	defer release()
	ds, err := remote.OpenDurable(durableConfig(dir))
	if err != nil {
		return err
	}
	err = store("durable", ds, false) // reads are the embedded Store's, timed above
	if cerr := ds.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	// compiler and interp: the compiled-run programs, compiled and run once.
	progs, err := compilePrograms(rc)
	if err != nil {
		return err
	}
	var compile time.Duration
	guards, chunked := 0, 0
	for _, p := range progs {
		compile += p.stats.CompileTime
		guards += p.stats.GuardedAccesses
		chunked += p.stats.LoopsChunked
	}
	res.put("compiler.compile_ms", float64(compile.Microseconds())/1e3, "ms")
	res.put("compiler.guards_emitted", float64(guards), "count")
	res.put("compiler.loops_chunked", float64(chunked), "count")
	c := &compiledLoad{progs: progs}
	w := newWorker(rc.seed, 0, 0, 0)
	t0 := time.Now()
	c.op(w)
	res.put("interp.ns_per_access", float64(time.Since(t0).Nanoseconds())/float64(c.accesses()), "ns")
	if w.failed > 0 {
		return fmt.Errorf("interp: compiled programs disagree with the local reference run")
	}
	return nil
}

// timeFabric prices the wire alone: a real TCPTransport and Server, with
// admission on as in the workloads, over a null store.
func timeFabric(rc *runCtx, res *result, budget time.Duration, raw, dst []byte) error {
	srv := fabric.NewServer(nullStore{})
	srv.EnableAdmission(fabric.AdmissionConfig{MaxQueue: 256, Target: uint64(5 * time.Millisecond), Interval: uint64(100 * time.Millisecond)})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return err
	}
	release := rc.res.add(func() { srv.Close() })
	defer release()

	var dials []float64
	for i := 0; i < 20; i++ {
		t0 := time.Now()
		tr, err := fabric.Dial(addr)
		if err != nil {
			return err
		}
		_, err = tr.TryFetchUntil(1, dst, fabric.Deadline{}) // the hello rides on the first op
		dials = append(dials, float64(time.Since(t0).Microseconds()))
		tr.Close()
		if err != nil {
			return err
		}
	}
	res.put("fabric.dial_hello_us", median(dials), "us")

	tr, err := fabric.Dial(addr)
	if err != nil {
		return err
	}
	defer tr.Close()
	var opErr error
	fetch := func() {
		if _, err := tr.TryFetchUntil(1, dst, fabric.Deadline{}); err != nil {
			opErr = err
		}
	}
	_, allocs := timeLoop(budget, fetch)
	res.put("fabric.rtt_allocs", allocs, "1")
	lat := sampleLoop(budget, fetch)
	res.put("fabric.fetch_rtt_p50_us", quantile(lat, 0.5)/1e3, "us")
	res.put("fabric.fetch_rtt_p99_us", quantile(lat, 0.99)/1e3, "us")
	lat = sampleLoop(budget, func() {
		if err := tr.TryPushUntil(1, raw, fabric.Deadline{}); err != nil {
			opErr = err
		}
	})
	res.put("fabric.push_rtt_p50_us", quantile(lat, 0.5)/1e3, "us")
	if opErr != nil {
		return opErr
	}

	// Two callers on one transport: what waiting for its one connection costs.
	var wg sync.WaitGroup
	both := make([][]float64, 2)
	errs := make([]error, 2)
	for g := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, objectBytes)
			both[g] = sampleLoop(budget, func() {
				if _, err := tr.TryFetchUntil(1, buf, fabric.Deadline{}); err != nil {
					errs[g] = err
				}
			})
		}()
	}
	wg.Wait()
	lat = append(both[0], both[1]...)
	sort.Float64s(lat)
	res.put("fabric.fetch_rtt_2callers_p50_us", quantile(lat, 0.5)/1e3, "us")
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// timeLoopback is the floor under the fabric rows and a host-noise gauge:
// a 4 KiB echo over a raw loopback net.Conn, no repository code.
func timeLoopback(res *result, budget time.Duration, raw, dst []byte) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	echoed := make(chan struct{})
	go func() {
		defer close(echoed)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, objectBytes)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		ln.Close()
		<-echoed
		return err
	}
	var opErr error
	lat := sampleLoop(budget, func() {
		if _, err := c.Write(raw); err != nil {
			opErr = err
		}
		if _, err := io.ReadFull(c, dst); err != nil {
			opErr = err
		}
	})
	c.Close()
	<-echoed
	res.put("host.loopback_rtt_us", quantile(lat, 0.5)/1e3, "us")
	return opErr
}
