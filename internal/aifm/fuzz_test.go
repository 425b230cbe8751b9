package aifm

import (
	"sync"
	"testing"
)

// FuzzMetaRoundTrip drives the Figure-3 metadata packing with arbitrary
// field values; any packing that loses or cross-contaminates a field is a
// guard-correctness bug.
func FuzzMetaRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint16(64), uint8(0), uint64(0))
	f.Add(uint64(1)<<37, uint16(4096), uint8(255), uint64(1)<<46)
	f.Add(uint64(12345), uint16(256), uint8(7), uint64(0xDEADBEEF))
	f.Fuzz(func(t *testing.T, idRaw uint64, size uint16, ds uint8, addrRaw uint64) {
		id := ObjectID(idRaw & ((1 << 38) - 1))
		rm := RemoteMeta(id, uint32(size), ds)
		if rm.Present() {
			t.Fatalf("remote meta marked present")
		}
		if rm.Safe() {
			t.Fatalf("remote meta marked safe")
		}
		if rm.RemoteID() != id || rm.RemoteSize() != uint32(size) || rm.DSID() != ds {
			t.Fatalf("remote round trip lost fields: %x", uint64(rm))
		}

		addr := addrRaw & ((1 << 47) - 1)
		lm := LocalMeta(addr, ds)
		if !lm.Present() || !lm.Safe() {
			t.Fatalf("fresh local meta not safe")
		}
		if lm.DataAddr() != addr || lm.DSID() != ds {
			t.Fatalf("local round trip lost fields: %x", uint64(lm))
		}
		// Flags never corrupt payloads.
		flagged := lm | MetaD | MetaH | MetaPF
		if flagged.DataAddr() != addr || flagged.DSID() != ds {
			t.Fatalf("flags corrupted payload")
		}
		if (lm | MetaE).Safe() {
			t.Fatalf("evacuating object marked safe")
		}
	})
}

// FuzzPoolAccessPattern drives a tiny pool with an arbitrary access
// pattern; invariants: budget never exceeded, data written is data read.
func FuzzPoolAccessPattern(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5})
	f.Add([]byte{0, 0, 0, 255, 255})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 256 {
			script = script[:256]
		}
		p, _, _ := newTestPool(t, 64, 1<<14, 256) // 4 slots, 256 objects
		shadow := make(map[ObjectID]byte)
		for i, b := range script {
			id := ObjectID(b) % ObjectID(p.NumObjects())
			switch i % 3 {
			case 0:
				access(t, p, id, 3, []byte{b}, true)
				shadow[id] = b
			case 1:
				if v, ok := shadow[id]; ok {
					got := make([]byte, 1)
					access(t, p, id, 3, got, false)
					if got[0] != v {
						t.Fatalf("step %d: object %d = %d, want %d", i, id, got[0], v)
					}
				}
			case 2:
				p.Prefetch(id)
			}
			if p.LocalBytes() > 256 {
				t.Fatalf("budget exceeded: %d", p.LocalBytes())
			}
		}
	})
}

// FuzzConcurrentPins interprets the input as per-goroutine op scripts
// (worker w executes bytes w, w+nWorkers, w+2*nWorkers, ...) against one
// shared pool whose workers evict each other's objects. Each worker owns a
// private id range and shadows its own writes; invariants: private values
// always read back as last written, pins always balance (Unpin never
// panics), and the local budget holds. Run under -race via make fuzz-short.
func FuzzConcurrentPins(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2))
	f.Add([]byte{0, 255, 0, 255, 128, 64, 32, 16, 8, 4, 2, 1}, uint8(4))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(3))
	f.Fuzz(func(t *testing.T, script []byte, nWorkers uint8) {
		if len(script) > 512 {
			script = script[:512]
		}
		workers := int(nWorkers)%4 + 1
		const perWorker = 8
		p, _, _ := newTestPool(t, 64, 1<<13, 1<<10)
		defer p.Close()
		var wg sync.WaitGroup
		fail := make([]string, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lo := w * perWorker
				shadow := make(map[ObjectID]byte)
				for i := w; i < len(script); i += workers {
					b := script[i]
					id := ObjectID(lo + int(b)%perWorker)
					switch b % 4 {
					case 0:
						win, _, err := p.Pin(id, true)
						if err != nil {
							fail[w] = err.Error()
							return
						}
						win[5] = b
						p.Unpin(id)
						shadow[id] = b
					case 1:
						win, _, err := p.Pin(id, false)
						if err != nil {
							fail[w] = err.Error()
							return
						}
						got := win[5]
						p.Unpin(id)
						if got != shadow[id] {
							fail[w] = "private value lost"
							return
						}
					case 2:
						p.Prefetch(id)
					case 3:
						p.Free(id)
						delete(shadow, id)
					}
				}
				for id, v := range shadow {
					var got [1]byte
					if err := p.Access(id, 5, got[:], false); err != nil {
						fail[w] = err.Error()
						return
					}
					if got[0] != v {
						fail[w] = "final private value lost"
						return
					}
				}
			}(w)
		}
		wg.Wait()
		for w, e := range fail {
			if e != "" {
				t.Fatalf("worker %d: %s", w, e)
			}
		}
		if p.LocalBytes() > 1<<10 {
			t.Fatalf("budget exceeded: %d", p.LocalBytes())
		}
	})
}
