package aifm

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

// runTierTrace drives one seeded mixed read/write/free/evacuate trace
// through a pool configured with the given compressed-tier budget, then
// returns the final heap contents (full read-back of every
// key) and a snapshot of the remote store taken straight off the
// transport, before the read-back can disturb it.
func runTierTrace(t *testing.T, tierBudget uint64) (heap map[ObjectID][]byte, remote map[uint64][]byte) {
	t.Helper()
	const objSize = 256
	const keys = 96
	p, _, link := newTestPool(t, objSize, keys*objSize, 16*objSize, func(c *Config) {
		c.CompressedBudget = tierBudget
	})
	defer p.Close()

	rng := sim.NewRNG(0xD1FF)
	for i := 0; i < 6000; i++ {
		key := ObjectID(rng.Intn(keys))
		switch rng.Intn(8) {
		case 0, 1, 2, 3:
			val := byte(rng.Uint64())
			off := uint64(rng.Intn(objSize))
			access(t, p, key, off, []byte{val}, true)
		case 4, 5, 6:
			off := uint64(rng.Intn(objSize))
			var got [1]byte
			access(t, p, key, off, got[:], false)
		case 7:
			if rng.Intn(16) == 0 {
				p.EvacuateAll()
			} else {
				p.Free(key)
			}
		}
	}
	p.EvacuateAll()

	remote = make(map[uint64][]byte)
	for key := ObjectID(0); key < keys; key++ {
		buf := make([]byte, objSize)
		if ok, err := link.TryFetchUntil(uint64(key), buf, fabric.Deadline{}); err != nil {
			t.Fatalf("remote snapshot key %d: %v", key, err)
		} else if ok {
			remote[uint64(key)] = buf
		}
	}
	heap = make(map[ObjectID][]byte)
	for key := ObjectID(0); key < keys; key++ {
		buf := make([]byte, objSize)
		access(t, p, key, 0, buf, false)
		heap[key] = buf
	}
	return heap, remote
}

// TestTierOracleDifferential is the tier's semantic gate: because the
// tier is write-through (a demotion parks a compressed copy alongside —
// never instead of — the fabric push), the compressed budget is a pure
// performance knob. The same seeded trace must therefore leave a
// byte-identical final heap AND a byte-identical remote store whether
// the tier is disabled, tiny or large.
func TestTierOracleDifferential(t *testing.T) {
	baseHeap, baseRemote := runTierTrace(t, 0)
	for _, tc := range []struct {
		name   string
		budget uint64
	}{
		{"small", 4 << 10},
		{"large", 1 << 20},
	} {
		heap, remote := runTierTrace(t, tc.budget)
		if len(remote) != len(baseRemote) {
			t.Errorf("%s: remote holds %d keys, tier-disabled run holds %d", tc.name, len(remote), len(baseRemote))
		}
		for key, want := range baseRemote {
			if got, ok := remote[key]; !ok {
				t.Errorf("%s: key %d missing from remote store", tc.name, key)
			} else if !bytes.Equal(got, want) {
				t.Errorf("%s: remote bytes for key %d diverge from tier-disabled run", tc.name, key)
			}
		}
		for key, want := range baseHeap {
			if !bytes.Equal(heap[key], want) {
				t.Errorf("%s: heap bytes for key %d diverge from tier-disabled run", tc.name, key)
			}
		}
	}
}

// TestTierConcurrentPoolNoLostUpdates runs eight goroutines over a
// working set sized to live mostly in the compressed tier (local budget
// holds 8 of 64 objects; the tier holds the rest) and checks that every
// read observes the owner's last write — demotion by the workers' demand
// misses and promotion may move an object between arena, tier, and
// fabric, but never lose or duplicate an update. Run under -race (make
// test-stress does); the bufpool ledger must net to zero after Close.
func TestTierConcurrentPoolNoLostUpdates(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	start := bufpool.Outstanding()

	const workers, perWorker = 8, 16
	const objSize = 1024
	const keys = workers * perWorker
	iters := 3000
	if testing.Short() {
		iters = 600
	}
	// Eight circulating slots — one per worker, so eight simultaneous
	// pins always fit — against a per-worker set of sixteen keys: even a
	// fully serialized schedule churns every worker's keys through the
	// tier, so promotion traffic does not depend on interleaving luck.
	p, _, _ := newTestPool(t, objSize, keys*objSize, workers*objSize, func(c *Config) {
		c.CompressedBudget = 1 << 20
	})

	errs := make([]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(w) + 1)
			last := make(map[ObjectID]uint64, perWorker)
			for i := 0; i < iters; i++ {
				key := ObjectID(w*perWorker + rng.Intn(perWorker))
				var stamp [8]byte
				if i%3 == 0 || last[key] == 0 {
					seq := uint64(i)<<8 | uint64(w) | 1<<63
					binary.LittleEndian.PutUint64(stamp[:], seq)
					if err := p.Access(key, 0, stamp[:], true); err != nil {
						errs[w] = err.Error()
						return
					}
					last[key] = seq
				} else {
					if err := p.Access(key, 0, stamp[:], false); err != nil {
						errs[w] = err.Error()
						return
					}
					if got := binary.LittleEndian.Uint64(stamp[:]); got != last[key] {
						errs[w] = "lost update: read a stamp that is not the last write"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	// Quiesced: a held copy exists only for a resident object promoted
	// from the tier (residents first — an eviction drops the copy before
	// the resident count).
	if res := p.ResidentSlots(); p.Far().Tier().Held() > res {
		t.Errorf("%d held copies outlive residency: %d resident", p.Far().Tier().Held(), res)
	}
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
	if hits := p.Far().Tier().Stats().Snapshot().Hits; hits == 0 {
		t.Errorf("working set never hit the compressed tier; test is not exercising promotion")
	}
	p.Close()
	if got := bufpool.Outstanding(); got != start {
		t.Errorf("leaked %d buffer leases", got-start)
	}
}

// TestSteadyStateTierHitAllocFree extends the allocation gate to the
// tier round trip: in steady state every demand miss evicts a resident
// (demoting it into the tier: encode + lease + FIFO bookkeeping) and
// promotes its replacement out of the tier (decode + lease release), and
// the whole cycle must not touch the allocator. Wired into make
// test-allocs next to the fetch and dirty-evict gates.
func TestSteadyStateTierHitAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation and lease tracking allocate")
	}
	const objSize = 4096
	// 16 circulating slots, 64 objects, tier big enough for all 64:
	// after warm-up every localize is a tier hit plus a demotion.
	p, env, _ := newTestPool(t, objSize, 64*objSize, 16*objSize, func(c *Config) {
		c.CompressedBudget = 1 << 22
	})
	for id := ObjectID(0); id < 64; id++ {
		touch(t, p, id, false)
	}
	// One full lap to seed the tier with the evicted 48.
	for id := ObjectID(0); id < 64; id++ {
		touch(t, p, id, false)
	}
	next := ObjectID(0)
	if n := testing.AllocsPerRun(300, func() {
		if err := p.Access(next, 0, nil, false); err != nil {
			t.Fatal(err)
		}
		next = (next + 1) % 64
	}); n != 0 {
		t.Fatalf("steady-state tier hit allocated %v times per run, want 0", n)
	}
	if hits := sim.Load(&env.Counters.TierHits); hits == 0 {
		t.Fatalf("no tier hits recorded; the gate is not measuring the tier path")
	}
}

// tierPayload is object id's recognisable, compressible content.
func tierPayload(id ObjectID, version byte) []byte {
	b := make([]byte, 256)
	for i := range b {
		b[i] = byte(id) ^ version ^ byte(i/16)
	}
	return b
}

// TestCleanRedemotionReusesEncoding runs a read-only lap over a pool whose
// every object sits in the tier: each localize is a tier hit, each
// eviction a clean re-demotion of an object promoted from the tier, and
// every one of those re-admits the held copy instead of encoding. The sim
// clock still charges the modelled encode for each.
func TestCleanRedemotionReusesEncoding(t *testing.T) {
	const objSize, objects = 256, 64
	p, env, _ := newTestPool(t, objSize, objects*objSize, 16*objSize, func(c *Config) {
		c.CompressedBudget = 1 << 20
	})
	defer p.Close()
	for id := ObjectID(0); id < objects; id++ {
		access(t, p, id, 0, tierPayload(id, 0), true)
	}
	p.EvacuateAll()
	tier := p.Far().Tier()
	demotes, hits, cycles := sim.Load(&env.Counters.TierDemotes), sim.Load(&env.Counters.TierHits), env.Clock.Cycles()
	if demotes != objects || tier.Held() != 0 {
		t.Fatalf("after the dirty lap: %d demotions, %d held copies; want %d and 0", demotes, tier.Held(), objects)
	}

	for id := ObjectID(0); id < objects; id++ {
		touch(t, p, id, false)
	}
	evicted := sim.Load(&env.Counters.TierDemotes) - demotes
	if got := tier.Stats().Snapshot().Reused; got != evicted || evicted == 0 {
		t.Fatalf("Reused = %d, want the lap's %d clean evictions", got, evicted)
	}
	if held, res := tier.Held(), p.ResidentSlots(); held != res {
		t.Fatalf("%d held copies for %d residents, all promoted from the tier", held, res)
	}
	p.EvacuateAll()
	if tier.Held() != 0 {
		t.Fatalf("%d held copies outlive an evacuation", tier.Held())
	}

	c := env.Costs
	want := uint64(objects) * (c.TierDecompress(objSize) + c.EvacuateObject + c.TierCompress(objSize))
	if got := tier.Stats().Snapshot().Reused; got != objects {
		t.Errorf("Reused = %d after the lap and an evacuation, want %d", got, objects)
	}
	if got := sim.Load(&env.Counters.TierDemotes) - demotes; got != objects {
		t.Errorf("TierDemotes grew by %d, want %d", got, objects)
	}
	if got := sim.Load(&env.Counters.TierHits) - hits; got != objects {
		t.Errorf("TierHits grew by %d, want %d", got, objects)
	}
	if got := env.Clock.Cycles() - cycles; got != want {
		t.Errorf("the lap and the evacuation charged %d cycles, want %d", got, want)
	}
	buf := make([]byte, objSize)
	for id := ObjectID(0); id < objects; id++ {
		access(t, p, id, 0, buf, false)
		if !bytes.Equal(buf, tierPayload(id, 0)) {
			t.Fatalf("object %d came back changed from its re-admitted copy", id)
		}
	}
}

// TestDirtiedPromotionReencodes: an object promoted from the tier and then
// written must be encoded again when it leaves — its held copy holds the
// old bytes. Promote, write, evict, promote again: the write comes back.
func TestDirtiedPromotionReencodes(t *testing.T) {
	const objSize = 256
	p, env, _ := newTestPool(t, objSize, 64*objSize, 16*objSize, func(c *Config) {
		c.CompressedBudget = 1 << 20
	})
	defer p.Close()
	for version := byte(0); version < 3; version++ {
		win, _ := pin(t, p, 5, true)
		if version > 0 && !bytes.Equal(win, tierPayload(5, version-1)) {
			t.Fatalf("promotion %d returned stale bytes", version)
		}
		copy(win, tierPayload(5, version))
		p.Unpin(5)
		p.EvacuateAll()
	}
	if hits := sim.Load(&env.Counters.TierHits); hits != 2 {
		t.Fatalf("TierHits = %d, want 2: the test is not promoting from the tier", hits)
	}
	if reused := p.Far().Tier().Stats().Snapshot().Reused; reused != 0 {
		t.Fatalf("a dirty eviction reused a held copy (%d)", reused)
	}
}
