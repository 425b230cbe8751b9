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
	tr.Register(reg, obs.L("pool", "test"))
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
}

// TestTierSteadyStateAllocFree is the package-level half of the
// `make test-allocs` tier gate: a demote + promote cycle over warm keys
// must not allocate once the rings, map, and scratch are warm.
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
		if tr.Get(k, got) {
			tr.Put(k, got)
		} else {
			tr.Put(k, obj)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state demote+promote allocated %.1f/op, want 0", allocs)
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
						// any hit must reproduce it exactly.
						want := binary.LittleEndian.Uint64(got)
						if want != k {
							t.Errorf("key %d promoted payload stamped %d", k, want)
							return
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
	tr.Clear()
	if n := bufpool.Outstanding(); n != base {
		t.Fatalf("outstanding leases = %d, want %d (leak)", n, base)
	}
}

// FuzzTierOps drives a tier through randomized demote/promote/evict/
// resize/delete sequences against a shadow map, checking the byte budget
// payload fidelity and the ring's size after every step, and net-zero
// leases at the end.
func FuzzTierOps(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 250, 6, 7}, uint16(4))
	f.Add([]byte{9, 9, 9, 9, 200, 1, 1}, uint16(64))
	f.Fuzz(func(t *testing.T, ops []byte, budgetKiB uint16) {
		bufpool.SetDebug(true)
		defer bufpool.SetDebug(bufpool.RaceEnabled)
		base := bufpool.Outstanding()
		const keys = 16
		tr := New(Config{Budget: uint64(budgetKiB) * 1024})
		shadow := map[uint64][]byte{} // what each key held when last demoted
		obj := make([]byte, 512)
		got := make([]byte, 512)
		for i, op := range ops {
			k := uint64(op % keys)
			switch op % 5 {
			case 0, 1: // demote
				binary.LittleEndian.PutUint64(obj, k)
				fill(obj[8:], k^uint64(i), op%2 == 0)
				if tr.Put(k, obj) {
					shadow[k] = append([]byte(nil), obj...)
				} else {
					delete(shadow, k) // a rejected re-put drops the old payload
				}
			case 2: // promote
				if tr.Get(k, got) {
					want, ok := shadow[k]
					if !ok || !bytes.Equal(got, want) {
						t.Fatalf("op %d: key %d promoted bytes differ from last demote", i, k)
					}
					delete(shadow, k)
				}
			case 3: // delete
				tr.Delete(k)
				delete(shadow, k)
			case 4: // resize
				tr.Resize(uint64(op) * 64)
			}
			if tr.Bytes() > tr.Budget() {
				t.Fatalf("op %d: bytes %d exceed budget %d", i, tr.Bytes(), tr.Budget())
			}
			var raw uint64
			for _, e := range tr.entries {
				raw += uint64(e.rawLen)
			}
			if got := tr.RawBytes(); got != raw {
				t.Fatalf("op %d: RawBytes %d, entries hold %d", i, got, raw)
			}
			// A Put rebuilds the ring past 2*len+16 slots, and at most
			// keys-1 other keys are resident when it does.
			if n := tr.clock.n; n > 2*(keys-1)+16+1 {
				t.Fatalf("op %d: ring holds %d slots", i, n)
			}
		}
		tr.Clear()
		if n := bufpool.Outstanding(); n != base {
			t.Fatalf("outstanding leases = %d, want %d", n, base)
		}
	})
}
