package ctier

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/obs"
)

func fill(buf []byte, key uint64, compressible bool) {
	if compressible {
		for i := range buf {
			buf[i] = byte(key)
		}
		return
	}
	rng := rand.New(rand.NewSource(int64(key)))
	rng.Read(buf)
}

func TestTierPutGetMoveSemantics(t *testing.T) {
	tr := New(Config{Budget: 1 << 20})
	obj := make([]byte, 4096)
	fill(obj, 7, true)
	if !tr.Put(7, obj) {
		t.Fatal("Put rejected under an ample budget")
	}
	if !tr.Contains(7) || tr.Len() != 1 {
		t.Fatal("object not resident after Put")
	}
	if tr.Bytes() >= uint64(len(obj)) {
		t.Fatalf("compressible object stored at %d bytes, want < %d", tr.Bytes(), len(obj))
	}
	got := make([]byte, 4096)
	if !tr.Get(7, got) {
		t.Fatal("Get missed a resident object")
	}
	if !bytes.Equal(got, obj) {
		t.Fatal("promoted bytes differ from demoted bytes")
	}
	// Move semantics: the hit consumed the entry.
	if tr.Contains(7) || tr.Len() != 0 || tr.Bytes() != 0 {
		t.Fatal("entry survived promotion")
	}
	if tr.Get(7, got) {
		t.Fatal("second Get hit a consumed entry")
	}
	s := tr.Stats().Snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.Demotes != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 demote", s)
	}
}

func TestTierBudgetEnforced(t *testing.T) {
	// The subtest names the eviction policy the tier runs: the CLOCK ring.
	t.Run("clock", func(t *testing.T) {
		const objSize = 1024
		tr := New(Config{Budget: 8 * objSize})
		obj := make([]byte, objSize)
		for k := uint64(0); k < 64; k++ {
			fill(obj, k, false) // incompressible: stored at full size
			if !tr.Put(k, obj) {
				t.Fatalf("Put(%d) rejected", k)
			}
			if tr.Bytes() > tr.Budget() {
				t.Fatalf("bytes %d exceed budget %d", tr.Bytes(), tr.Budget())
			}
		}
		if tr.Len() == 0 || tr.Len() > 8 {
			t.Fatalf("resident count %d outside (0, 8]", tr.Len())
		}
		if ev := tr.Stats().Snapshot().Evictions; ev < 56 {
			t.Fatalf("evictions = %d, want >= 56", ev)
		}
		// Every surviving entry must still round-trip.
		got := make([]byte, objSize)
		for k := uint64(0); k < 64; k++ {
			if !tr.Contains(k) {
				continue
			}
			if !tr.Get(k, got) {
				t.Fatalf("resident key %d failed to promote", k)
			}
			fill(obj, k, false)
			if !bytes.Equal(got, obj) {
				t.Fatalf("key %d corrupted in tier", k)
			}
		}
	})
}

func TestTierOversizeObjectRejected(t *testing.T) {
	tr := New(Config{Budget: 512})
	obj := make([]byte, 4096)
	fill(obj, 1, false)
	if tr.Put(1, obj) {
		t.Fatal("object larger than the whole budget was admitted")
	}
	if s := tr.Stats().Snapshot(); s.Rejects != 1 {
		t.Fatalf("rejects = %d, want 1", s.Rejects)
	}
}

// TestTierRejectedReputDropsOldPayload: a re-put the budget rejects must
// not leave the key's previous payload behind to be served as a hit.
func TestTierRejectedReputDropsOldPayload(t *testing.T) {
	tr := New(Config{Budget: 1 << 20})
	if !tr.Put(1, make([]byte, 4096)) {
		t.Fatal("zeroed object not admitted")
	}
	tr.Resize(tr.Bytes() + 100)
	random := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(random)
	if tr.Put(1, random) {
		t.Fatal("incompressible object admitted past the budget")
	}
	if tr.Get(1, make([]byte, 4096)) {
		t.Fatal("rejected re-put left the old payload to be served")
	}
	if tr.Len() != 0 || tr.Bytes() != 0 || tr.RawBytes() != 0 {
		t.Fatalf("after the rejected re-put: %d entries, %d bytes, %d raw", tr.Len(), tr.Bytes(), tr.RawBytes())
	}
}

// TestTierHeldCopyLifetime walks one key through the held copy's life: a
// promotion keeps it (outside Bytes, inside HeldBytes), Readmit of the
// unchanged object re-admits it without an encode, and a Put, a Delete or
// a shrinking Resize drops it, so the next Readmit encodes what it is given.
func TestTierHeldCopyLifetime(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(bufpool.RaceEnabled)
	base := bufpool.Outstanding()
	tr := New(Config{Budget: 1 << 20})
	old, updated, got := valueObject(1), valueObject(2), make([]byte, 4096)
	held := func(n int) {
		t.Helper()
		if len(tr.held) != n {
			t.Fatalf("%d held copies, want %d", len(tr.held), n)
		}
	}
	promote := func(want []byte) {
		t.Helper()
		if !tr.Get(1, got) || !bytes.Equal(got, want) {
			t.Fatal("promotion missed or returned the wrong bytes")
		}
	}
	tr.Put(1, old)
	size := tr.Bytes()
	promote(old)
	held(1)
	if tr.Bytes() != 0 || tr.HeldBytes() != size {
		t.Fatalf("after a promotion: %d bytes in the tier, %d held; want 0 and %d", tr.Bytes(), tr.HeldBytes(), size)
	}
	if !tr.Readmit(1, got) || tr.Stats().Snapshot().Reused != 1 || tr.Bytes() != size {
		t.Fatal("Readmit of the unchanged object did not re-admit its held copy")
	}
	held(0)
	for _, drop := range []struct {
		name string
		f    func()
	}{
		{"Put", func() { tr.Put(1, updated) }},
		{"Delete", func() { tr.Delete(1) }},
		{"shrinking Resize", func() { tr.Resize(tr.Budget() - 1) }},
	} {
		tr.Put(1, old)
		promote(old)
		drop.f()
		held(0)
		if tr.HeldBytes() != 0 {
			t.Fatalf("%s left %d held bytes", drop.name, tr.HeldBytes())
		}
		tr.Delete(1)
		reused := tr.Stats().Snapshot().Reused
		tr.Readmit(1, updated)
		if tr.Stats().Snapshot().Reused != reused {
			t.Fatalf("after a %s, Readmit reused a dropped copy", drop.name)
		}
		promote(updated)
		tr.Delete(1)
	}
	// Held copies are bounded by the budget on their own.
	tr.Resize(size)
	for k := uint64(1); k <= 2; k++ {
		tr.Put(k, old)
		tr.Get(k, got)
	}
	held(1)
	tr.Clear()
	held(0)
	if n := bufpool.Outstanding(); n != base {
		t.Fatalf("outstanding leases = %d, want %d (leak)", n, base)
	}
}

// scriptObject is version v of key k's 1 KiB object, in one of three
// shapes by key: incompressible (stored verbatim), the fmbench value
// pattern, and half random (about half its size encoded).
func scriptObject(k, v uint64) []byte {
	b := make([]byte, 1024)
	rng := rand.New(rand.NewSource(int64(k<<32 | v)))
	switch k % 3 {
	case 0:
		rng.Read(b)
	case 1:
		copy(b, valueObject(k<<32|v))
	case 2:
		rng.Read(b[:len(b)/2])
	}
	return b
}

// sameTier fails unless a and b hold the same entries byte for byte, with
// the same second chances, accounting, ghost set, ring and counters
// (Reused aside).
func sameTier(t *testing.T, step int, a, b *Tier) {
	t.Helper()
	if len(a.entries) != len(b.entries) || a.bytes != b.bytes || a.rawBytes != b.rawBytes {
		t.Fatalf("step %d: %d entries / %d bytes / %d raw against %d / %d / %d",
			step, len(a.entries), a.bytes, a.rawBytes, len(b.entries), b.bytes, b.rawBytes)
	}
	for k, ea := range a.entries {
		eb, ok := b.entries[k]
		if !ok || !bytes.Equal(ea.data, eb.data) || ea.rawLen != eb.rawLen || ea.chance != eb.chance {
			t.Fatalf("step %d: key %d's entries differ", step, k)
		}
	}
	if len(a.ghost) != len(b.ghost) {
		t.Fatalf("step %d: ghost sets of %d and %d keys", step, len(a.ghost), len(b.ghost))
	}
	for k := range a.ghost {
		if _, ok := b.ghost[k]; !ok {
			t.Fatalf("step %d: key %d is a ghost in one tier only", step, k)
		}
	}
	if a.clock.n != b.clock.n {
		t.Fatalf("step %d: rings of %d and %d slots", step, a.clock.n, b.clock.n)
	}
	for i := 0; i < a.clock.n; i++ {
		if a.clock.buf[(a.clock.head+i)%len(a.clock.buf)] != b.clock.buf[(b.clock.head+i)%len(b.clock.buf)] {
			t.Fatalf("step %d: rings differ at slot %d", step, i)
		}
	}
	sa, sb := a.Stats().Snapshot(), b.Stats().Snapshot()
	sa.Reused, sb.Reused = 0, 0
	if sa != sb {
		t.Fatalf("step %d: stats %+v against %+v", step, sa, sb)
	}
}

// TestTierReadmitMatchesPut replays one scripted life of 24 objects —
// promotions, writes, clean and dirty demotions, frees, budget rejects,
// ghost second chances and shrinking Resizes — through two tiers that
// differ only in how a clean object goes back: reuse re-admits its held
// copy, encode puts it again. After every step both must hold the same
// entries byte for byte, the same Bytes and RawBytes, the same stats and
// the same ring; at the end they must evict in the same order.
func TestTierReadmitMatchesPut(t *testing.T) {
	const keys = 24
	reuse, encode := New(Config{Budget: 10 << 10}), New(Config{Budget: 10 << 10})
	version := make([]uint64, keys)
	resident := make([]bool, keys)
	dirty := make([]bool, keys)
	rng := rand.New(rand.NewSource(33))
	gotA, gotB := make([]byte, 1024), make([]byte, 1024)
	chances := 0
	for step := 0; step < 4000; step++ {
		switch step {
		case 1000, 2500: // shrink: half random and incompressible objects no longer fit
			reuse.Resize(700)
			encode.Resize(700)
		case 1500, 3000:
			reuse.Resize(10 << 10)
			encode.Resize(10 << 10)
		}
		k := uint64(rng.Intn(keys))
		switch op := rng.Intn(8); {
		case op < 3 && !resident[k]: // promote; a tier miss fetches from the fabric
			hitA, hitB := reuse.Get(k, gotA), encode.Get(k, gotB)
			if hitA != hitB || hitA && (!bytes.Equal(gotA, gotB) || !bytes.Equal(gotA, scriptObject(k, version[k]))) {
				t.Fatalf("step %d: promotions of key %d differ", step, k)
			}
			resident[k] = true
		case op < 5 && resident[k]: // write
			version[k]++
			dirty[k] = true
		case op < 7 && resident[k]: // demote
			raw := scriptObject(k, version[k])
			admitA := reuse.Readmit
			if dirty[k] {
				admitA = reuse.Put
			}
			if admitA(k, raw) != encode.Put(k, raw) {
				t.Fatalf("step %d: one tier admitted key %d, the other did not", step, k)
			}
			if e, ok := reuse.entries[k]; ok && e.chance {
				chances++
			}
			resident[k], dirty[k] = false, false
		case op == 7: // free
			reuse.Delete(k)
			encode.Delete(k)
			resident[k], dirty[k] = false, false
			version[k]++
		}
		sameTier(t, step, reuse, encode)
	}
	sa, sb := reuse.Stats().Snapshot(), encode.Stats().Snapshot()
	if sa.Reused == 0 || sb.Reused != 0 || sa.Rejects == 0 || sa.Evictions == 0 || chances == 0 {
		t.Fatalf("script did not cover reuse, rejects, evictions and second chances: %+v, %d chances", sa, chances)
	}
	// Drain both: the same ring and chances must pick the same victims.
	for reuse.Len() > 0 {
		for _, tr := range []*Tier{reuse, encode} {
			tr.mu.Lock()
			tr.evictClock()
			tr.mu.Unlock()
		}
		sameTier(t, -1, reuse, encode)
	}
}

func TestTierZeroBudgetRejectsAll(t *testing.T) {
	tr := New(Config{})
	if tr.Put(1, []byte("abcd")) {
		t.Fatal("zero-budget tier admitted an object")
	}
	var nilTier *Tier
	if nilTier.Put(1, []byte("abcd")) || nilTier.Get(1, nil) {
		t.Fatal("nil tier must act as a disabled tier")
	}
	nilTier.Delete(1)
	nilTier.Resize(100)
	nilTier.Clear()
	if nilTier.Len() != 0 || nilTier.Bytes() != 0 || nilTier.Budget() != 0 {
		t.Fatal("nil tier accessors must be zero")
	}
}

func TestTierResizeShrinksImmediately(t *testing.T) {
	const objSize = 1024
	tr := New(Config{Budget: 16 * objSize})
	obj := make([]byte, objSize)
	for k := uint64(0); k < 16; k++ {
		fill(obj, k, false)
		tr.Put(k, obj)
	}
	if tr.Len() != 16 {
		t.Fatalf("resident = %d, want 16", tr.Len())
	}
	tr.Resize(4 * objSize)
	if tr.Bytes() > 4*objSize {
		t.Fatalf("bytes %d exceed shrunk budget", tr.Bytes())
	}
	if tr.Len() > 4 {
		t.Fatalf("resident = %d after shrink, want <= 4", tr.Len())
	}
	// Growing back does not resurrect anything but accepts new entries.
	tr.Resize(16 * objSize)
	fill(obj, 99, false)
	if !tr.Put(99, obj) {
		t.Fatal("Put rejected after grow")
	}
}

// TestTierGhostGetsSecondChance pins down the clock's one promise in a
// 4-entry tier: a key that comes back after a promotion survives one
// eviction at the head of the ring, and only one; a fresh key gets none.
func TestTierGhostGetsSecondChance(t *testing.T) {
	const objSize = 1024
	tr := New(Config{Budget: 4 * objSize})
	obj := make([]byte, objSize)
	got := make([]byte, objSize)
	put := func(k uint64) {
		t.Helper()
		fill(obj, k, false) // incompressible: four entries fill the tier
		if !tr.Put(k, obj) {
			t.Fatalf("Put(%d) rejected", k)
		}
	}
	resident := func(want ...uint64) {
		t.Helper()
		for _, k := range want {
			if !tr.Contains(k) {
				t.Fatalf("key %d evicted; want resident %v", k, want)
			}
		}
		if tr.Len() != len(want) {
			t.Fatalf("%d entries resident, want %v", tr.Len(), want)
		}
	}
	// Demote 100, promote it (the ghost set remembers it), and demote it
	// again once its first ring slot has been popped.
	for _, k := range []uint64{100, 0, 1, 2} {
		put(k)
	}
	if !tr.Get(100, got) {
		t.Fatal("warm-up promote missed")
	}
	put(3)
	put(100) // evicts 0, the fresh key at the head
	resident(1, 2, 3, 100)
	for _, k := range []uint64{4, 5, 6} {
		put(k) // evict 1, 2, 3: fresh keys get no second chance
	}
	resident(100, 4, 5, 6)
	put(7) // 100 is at the head: it spends its chance, 4 goes instead
	resident(100, 5, 6, 7)
	put(8)
	put(9)
	resident(100, 7, 8, 9)
	put(10) // the following lap takes 100: its chance is spent
	resident(7, 8, 9, 10)
}

// TestTierRingStaysBounded cycles one key through Put and Get in a tier
// that never fills: only eviction pops the ring, so without the rebuild
// every cycle would leave one more stale slot behind.
func TestTierRingStaysBounded(t *testing.T) {
	tr := New(Config{Budget: 1 << 20})
	obj := make([]byte, 512)
	fill(obj, 1, true)
	for i := 0; i < 100_000; i++ {
		tr.Put(1, obj)
		if n := tr.clock.n; n > 2*tr.Len()+16 {
			t.Fatalf("cycle %d: ring holds %d slots for %d entries", i, n, tr.Len())
		}
		if !tr.Get(1, obj) {
			t.Fatalf("cycle %d: Get missed", i)
		}
	}
}

func TestTierDeleteReleasesLease(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(bufpool.RaceEnabled)
	base := bufpool.Outstanding()
	tr := New(Config{Budget: 1 << 20})
	obj := make([]byte, 2048)
	for k := uint64(0); k < 8; k++ {
		fill(obj, k, false)
		tr.Put(k, obj)
	}
	tr.Delete(3)
	tr.Delete(3) // double delete is a no-op
	got := make([]byte, 2048)
	tr.Get(5, got)
	tr.Clear()
	if n := bufpool.Outstanding(); n != base {
		t.Fatalf("outstanding leases = %d, want %d (leak)", n, base)
	}
}

func TestTierRegisterMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	tr := New(Config{Budget: 1 << 16})
	tr.Register(reg, obs.Label{Key: "pool", Value: "test"})
	obj := make([]byte, 1024)
	fill(obj, 1, true)
	tr.Put(1, obj)
	snap := reg.Snapshot()
	if snap.Counter(`trackfm_ctier_demotes_total{pool="test"}`) != 1 {
		t.Fatal("demote counter not exported")
	}
	if snap.Gauge(`trackfm_ctier_compression_ratio{pool="test"}`) <= 1 {
		t.Fatal("compression ratio gauge not exported or <= 1 for a compressible object")
	}
	got := make([]byte, len(obj))
	tr.Get(1, got)
	if held := reg.Snapshot().Gauge(`trackfm_ctier_held_bytes{pool="test"}`); held == 0 || held != snap.Gauge(`trackfm_ctier_bytes{pool="test"}`) {
		t.Fatalf("held bytes gauge = %v after a promotion, want the entry's %v", held, snap.Gauge(`trackfm_ctier_bytes{pool="test"}`))
	}
	tr.Readmit(1, got)
	snap = reg.Snapshot()
	if snap.Counter(`trackfm_ctier_reused_total{pool="test"}`) != 1 || snap.Gauge(`trackfm_ctier_held_bytes{pool="test"}`) != 0 {
		t.Fatal("reused counter or held bytes gauge not exported, or wrong after a re-admission")
	}
}

// TestTierSteadyStateAllocFree is the package-level half of the
// `make test-allocs` tier gate: a demote + promote cycle over warm keys —
// half the demotions re-admitting the held copy, half encoding — must not
// allocate once the rings, maps, and scratch are warm.
func TestTierSteadyStateAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("race instrumentation allocates; gate runs without -race")
	}
	const objSize = 4096
	tr := New(Config{Budget: 64 * objSize})
	obj := make([]byte, objSize)
	got := make([]byte, objSize)
	for k := uint64(0); k < 32; k++ {
		fill(obj, k, true)
		tr.Put(k, obj)
	}
	var k uint64
	allocs := testing.AllocsPerRun(300, func() {
		k = (k + 1) % 32
		if !tr.Get(k, got) {
			tr.Put(k, obj)
		} else if k%2 == 0 {
			tr.Readmit(k, got)
		} else {
			tr.Put(k, got)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state demote+promote allocated %.1f/op, want 0", allocs)
	}
	if tr.Stats().Snapshot().Reused == 0 {
		t.Fatal("no held copy re-admitted: the gate is not measuring Readmit")
	}
}

// TestTierConcurrent hammers one tier from 8 goroutines under -race:
// every promoted object must carry exactly the bytes its key demoted,
// and the bufpool leak detector must end net-zero.
func TestTierConcurrent(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(bufpool.RaceEnabled)
	base := bufpool.Outstanding()
	const (
		workers = 8
		keys    = 64
		objSize = 1024
		iters   = 2000
	)
	tr := New(Config{Budget: keys / 2 * objSize})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			obj := make([]byte, objSize)
			got := make([]byte, objSize)
			for i := 0; i < iters; i++ {
				k := uint64(rng.Intn(keys))
				switch rng.Intn(4) {
				case 0:
					tr.Delete(k)
				case 1:
					if tr.Get(k, got) {
						// Key k's payload is a pure function of k:
						// any hit must reproduce it exactly, and so
						// may go back as it is.
						want := binary.LittleEndian.Uint64(got)
						if want != k {
							t.Errorf("key %d promoted payload stamped %d", k, want)
							return
						}
						if rng.Intn(2) == 0 {
							tr.Readmit(k, got)
						}
					}
				default:
					binary.LittleEndian.PutUint64(obj, k)
					fill(obj[8:], k, k%2 == 0)
					tr.Put(k, obj)
				}
			}
		}(w)
	}
	wg.Wait()
	if tr.HeldBytes() > tr.Budget() {
		t.Fatalf("held copies hold %d bytes past the %d budget", tr.HeldBytes(), tr.Budget())
	}
	if tr.Stats().Snapshot().Reused == 0 {
		t.Fatal("no held copy re-admitted: the test is not exercising Readmit")
	}
	tr.Clear()
	if n := bufpool.Outstanding(); n != base {
		t.Fatalf("outstanding leases = %d, want %d (leak)", n, base)
	}
}

// TestTierConcurrentOneKey narrows TestTierConcurrent to one key with a
// 64 KiB payload, so that Deletes, Puts and Readmits keep landing while a
// Get decodes: the block a Get decodes from is its own until the decode is
// done, whatever else happens to the key. After each Delete another object
// is put and freed at once, so a block released early is overwritten under
// its decode (a corrupt promotion), and one published or released twice
// shows up in the lease ledger.
func TestTierConcurrentOneKey(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(bufpool.RaceEnabled)
	base := bufpool.Outstanding()
	obj := bytes.Repeat(valueObject(3), 16)
	tr := New(Config{Budget: 1 << 20})
	tr.Put(1, obj)
	// Incompressible, and as long as key 1's block: stored verbatim in a
	// lease of the same size class.
	noise := make([]byte, tr.Bytes())
	rand.New(rand.NewSource(1)).Read(noise)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			got := make([]byte, len(obj))
			for i := 0; i < 1000; i++ {
				switch rng.Intn(4) {
				case 0:
					tr.Delete(1)
					tr.Put(2, noise)
					tr.Delete(2)
				case 1:
					tr.Put(1, obj)
				default:
					if !tr.Get(1, got) {
						continue
					}
					if !bytes.Equal(got, obj) {
						t.Error("promoted bytes differ from the payload")
						return
					}
					tr.Readmit(1, got)
				}
			}
		}(w)
	}
	wg.Wait()
	if c := tr.Stats().Snapshot().Corrupt; c != 0 {
		t.Fatalf("%d promotions decoded a block that was no longer theirs", c)
	}
	if len(tr.held) > 1 || tr.HeldBytes() > tr.Budget() {
		t.Fatalf("%d held copies of one key, %d bytes", len(tr.held), tr.HeldBytes())
	}
	tr.Clear()
	if n := bufpool.Outstanding(); n != base {
		t.Fatalf("outstanding leases = %d, want %d (leak)", n, base)
	}
}

// tierOpsSeed demotes key 1 compressible, promotes it, re-admits it
// unchanged (twice, the second promotion also held) and deletes its encoded
// entry, then deletes key 2 while its held copy is live and re-admits key 2
// after a fresh demotion; TestTierOpsSeedReaches pins that it does.
var tierOpsSeed = []byte{6, 8, 11, 8, 11, 9, 12, 14, 15, 12, 17, 3, 0}

// tierOpsReach counts what a tierOps run exercised.
type tierOpsReach struct {
	reused         uint64 // Readmits served by a held copy
	encodedDeletes int    // Deletes of an entry stored encoded, not verbatim
}

// tierOps drives a tier through the demote/promote/evict/resize/delete
// sequence ops spells, and clean re-demotions of promoted objects, against
// a shadow map, checking the byte budget, payload fidelity, the ring's size
// and the held copies after every step — each held key is promoted and not
// yet demoted, and decodes to what was promoted; held bytes stay within the
// budget — and net-zero leases at the end. op%6 picks the operation and
// op/6 the key, so every operation reaches every key; a demotion's shape
// follows op's parity (case 0 compressible, case 1 incompressible).
func tierOps(t *testing.T, ops []byte, budgetKiB uint16) tierOpsReach {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(bufpool.RaceEnabled)
	base := bufpool.Outstanding()
	const keys = 16
	var reach tierOpsReach
	tr := New(Config{Budget: uint64(budgetKiB) * 1024})
	shadow := map[uint64][]byte{}   // what each key held when last demoted
	promoted := map[uint64][]byte{} // promoted and not demoted since
	obj := make([]byte, 512)
	got := make([]byte, 512)
	promote := func(i int, k uint64) bool {
		if !tr.Get(k, got) {
			return false
		}
		want, ok := shadow[k]
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("op %d: key %d promoted bytes differ from last demote", i, k)
		}
		delete(shadow, k)
		promoted[k] = append([]byte(nil), got...)
		return true
	}
	for i, op := range ops {
		k := uint64(op/6) % keys
		switch op % 6 {
		case 0, 1: // demote
			binary.LittleEndian.PutUint64(obj, k)
			fill(obj[8:], k^uint64(i), op%2 == 0)
			if tr.Put(k, obj) {
				shadow[k] = append([]byte(nil), obj...)
			} else {
				delete(shadow, k) // a rejected re-put drops the old payload
			}
			delete(promoted, k)
		case 2: // promote
			promote(i, k)
		case 3: // delete
			if e, ok := tr.entries[k]; ok && e.rawLen != len(e.data) {
				reach.encodedDeletes++
			}
			tr.Delete(k)
			delete(shadow, k)
			delete(promoted, k)
		case 4: // resize
			tr.Resize(uint64(op) * 64)
		case 5: // demote a promoted object unchanged, promoting it first if need be
			if _, ok := promoted[k]; !ok && !promote(i, k) {
				break
			}
			raw := promoted[k]
			if tr.Readmit(k, raw) {
				shadow[k] = raw
			}
			delete(promoted, k)
		}
		if tr.Bytes() > tr.Budget() {
			t.Fatalf("op %d: bytes %d exceed budget %d", i, tr.Bytes(), tr.Budget())
		}
		var raw, held uint64
		for _, e := range tr.entries {
			raw += uint64(e.rawLen)
		}
		if got := tr.RawBytes(); got != raw {
			t.Fatalf("op %d: RawBytes %d, entries hold %d", i, got, raw)
		}
		for hk, h := range tr.held {
			want, ok := promoted[hk]
			if !ok || h.decoding || !tr.decodeInto(got, h) || !bytes.Equal(got, want) {
				t.Fatalf("op %d: key %d's held copy is not its promoted bytes", i, hk)
			}
			held += uint64(len(h.data))
		}
		if held != tr.HeldBytes() || held > tr.Budget() {
			t.Fatalf("op %d: held copies hold %d bytes, HeldBytes %d, budget %d", i, held, tr.HeldBytes(), tr.Budget())
		}
		// A Put rebuilds the ring past 2*len+16 slots, and at most
		// keys-1 other keys are resident when it does.
		if n := tr.clock.n; n > 2*(keys-1)+16+1 {
			t.Fatalf("op %d: ring holds %d slots", i, n)
		}
	}
	reach.reused = tr.Stats().Snapshot().Reused
	tr.Clear()
	if n := bufpool.Outstanding(); n != base {
		t.Fatalf("outstanding leases = %d, want %d", n, base)
	}
	return reach
}

// TestTierOpsSeedReaches: the re-admit seed of FuzzTierOps re-admits held
// copies of encoded blocks and deletes an encoded entry, so plain go test
// runs the held-copy checks on a block that is not stored verbatim.
func TestTierOpsSeedReaches(t *testing.T) {
	reach := tierOps(t, tierOpsSeed, 64)
	if reach.reused < 3 || reach.encodedDeletes < 1 {
		t.Fatalf("seed reached %d re-admissions and %d encoded deletes; want >= 3 and >= 1", reach.reused, reach.encodedDeletes)
	}
}

// FuzzTierOps runs tierOps on fuzzed operation sequences and budgets.
func FuzzTierOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 6, 7}, uint16(4))
	f.Add([]byte{9, 9, 9, 9, 200, 1, 1}, uint16(64))
	f.Add(tierOpsSeed, uint16(64))
	f.Fuzz(func(t *testing.T, ops []byte, budgetKiB uint16) {
		tierOps(t, ops, budgetKiB)
	})
}

// BenchmarkTierReadmit is a tier hit followed by a clean demotion of the
// same fmbench-pattern object, the demotion either re-admitting the held
// copy (readmit) or encoding the object again (put).
func BenchmarkTierReadmit(b *testing.B) {
	const keys = 64
	for _, bc := range []struct {
		name    string
		readmit bool
	}{{"put", false}, {"readmit", true}} {
		b.Run(bc.name, func(b *testing.B) {
			tr := New(Config{Budget: 2 * keys * 4096})
			for k := uint64(0); k < keys; k++ {
				tr.Put(k, valueObject(k))
			}
			dst := make([]byte, 4096)
			b.SetBytes(int64(len(dst)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(i % keys)
				if !tr.Get(k, dst) {
					b.Fatal("a resident key missed")
				}
				if bc.readmit {
					tr.Readmit(k, dst)
				} else {
					tr.Put(k, dst)
				}
			}
		})
	}
}
