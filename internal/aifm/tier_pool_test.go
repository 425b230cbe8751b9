package aifm

import (
	"bytes"
	"testing"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/sim"
)

// TestTierConcurrentPoolNoLostUpdates is the model's K-worker run over a
// tier that holds the whole working set: the workers' demand misses demote
// objects into the tier and promote them out of it, moving them between
// arena, tier and fabric, and no read may see anything but its owner's
// last write. Run under -race (make test does); every buffer lease must be
// home after Close.
func TestTierConcurrentPoolNoLostUpdates(t *testing.T) { runWorkers(t, modelCfg("tier-large")) }

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
