// KV-store example: far memory over a real network.
//
// The memcached-style store from the paper's §4.5 runs with its far
// memory backed by an actual TCP remote-memory node (cmd/fmserver). By
// default the example starts an in-process server on a loopback socket;
// point -server at a running fmserver to split the two halves across
// processes (or machines).
//
//	go run ./examples/kvstore
//	go run ./cmd/fmserver -addr 127.0.0.1:7070 &
//	go run ./examples/kvstore -server 127.0.0.1:7070
//
// After the gets it scans a far array with a chunked, prefetching loop:
// where a get is one blocking round trip per miss, the scan's fetches are
// written ahead on the transport's prefetch stream, and the client's
// pipelined=/streamFlushes= and the server's frames=/flushes= show how many
// shared a write. The client's figures are read off the runtime's metrics
// registry (the transport the runtime dialed registers there, as it does
// for a farmem.Heap's Metrics), not off a transport held on the side.
package main

import (
	"flag"
	"fmt"
	"time"

	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/interp"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
	"trackfm/internal/workloads/kv"
)

// scanElems is the length, in 8-byte elements, of the far array scanned
// after the gets.
const scanElems = 1 << 16

func main() {
	server := flag.String("server", "", "fmserver address (empty: start one in-process)")
	keys := flag.Int("keys", 5000, "key population")
	gets := flag.Int("gets", 20000, "get operations")
	skew := flag.Float64("skew", 1.05, "zipf skew")
	flag.Parse()

	addr := *server
	if addr == "" {
		srv := fabric.NewServer(remote.NewStore())
		bound, err := srv.ListenAndServe("127.0.0.1:0")
		if err != nil {
			panic(err)
		}
		defer srv.Close()
		addr = bound
		fmt.Printf("started in-process fmserver on %s\n", addr)
	}
	itemBytes := kv.EstimatedItemBytes(1, 4096)
	ws := uint64(*keys) * (itemBytes + 16)
	env := sim.NewEnv()
	rt, err := core.NewRuntime(core.Config{
		Env:        env,
		ObjectSize: 64, // small objects: the paper's anti-amplification choice
		// the scan array, and as much again for slab rounding at small -keys
		HeapSize:    ws*4 + 2*scanElems*8,
		LocalBudget: ws / 4,
		// evacuations really cross the socket
		RemoteConfig: fabric.RemoteConfig{RemoteAddr: addr},
	})
	if err != nil {
		panic(err)
	}
	defer rt.Pool().Close() // hangs up the connection the runtime dialed
	rt.Pool().RegisterObs(env.Metrics())

	start := time.Now()
	cfg := kv.Config{Keys: *keys, Gets: *gets, Skew: *skew, Seed: 7}
	be := interp.NewTrackFMBackend(rt)
	res, err := kv.Run(be, cfg)
	if err != nil {
		panic(err)
	}
	elapsed := time.Since(start)
	// The same store in plain local memory is the reference.
	if ref, err := kv.Run(interp.NewLocalBackend(sim.NewEnv()), cfg); err != nil || *ref != *res {
		panic(fmt.Sprintf("far-memory run %+v, local reference %+v (%v)", *res, ref, err))
	}

	fmt.Printf("done: %d hits, %d misses (checksum %d)\n", res.Hits, res.Misses, res.CheckSum)
	c := be.Env().Counters.Snapshot() // through the backend: with its pending charges
	fmt.Printf("wall time %v; %d guards (%d slow), %d evacuations over TCP, %.1f KB pushed\n",
		elapsed.Round(time.Millisecond), c.Guards(), c.SlowPathGuards,
		c.Evacuations, float64(c.BytesEvicted)/1024)

	arr := rt.MustMalloc(scanElems * 8)
	var want uint64
	for i := uint64(0); i < scanElems; i++ {
		rt.StoreU64(arr.Add(i*8), i*3)
		want += i * 3
	}
	rt.EvacuateAll() // every object of the array is now far
	hits := env.Counters.PrefetchHits
	start = time.Now()
	var sum uint64
	cur := rt.NewCursor(arr, 8, true)
	for i := uint64(0); i < scanElems; i++ {
		sum += cur.LoadU64(i)
	}
	cur.Close()
	if sum != want {
		panic(fmt.Sprintf("scan sum %d, want %d", sum, want))
	}
	m := env.Metrics().Snapshot()
	fmt.Printf("scan: %d far elements in %v, %d prefetch hits | client retries=%d reconnects=%d openConns=%.0f pipelined=%d streamFlushes=%d carriedPushes=%d carryExchanges=%d\n",
		scanElems, time.Since(start).Round(time.Microsecond), env.Counters.PrefetchHits-hits,
		m.Counter("trackfm_fabric_retries_total"), m.Counter("trackfm_fabric_reconnects_total"),
		m.Gauge("trackfm_transport_open_conns"),
		m.Counter("trackfm_transport_pipelined_fetches_total"), m.Counter("trackfm_transport_stream_flushes_total"),
		m.Counter("trackfm_transport_carried_pushes_total"), m.Counter("trackfm_transport_carry_exchanges_total"))
}
