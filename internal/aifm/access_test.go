package aifm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/sim"
)

// A record is a self-describing 64-byte value: each of its words names
// the record's object id, its version and the word's own index, so a
// reader can tell a whole record from one torn between two versions, and
// a single word from one read out of a recycled slot.
const recordWords = 8

func recordWord(id ObjectID, ver uint64, k int) uint64 {
	return uint64(id)<<56 | (ver&(1<<48-1))<<8 | uint64(k)
}

// decodeWord splits a record word into its object id, version and index.
func decodeWord(w uint64) (id ObjectID, ver uint64, k int) {
	return ObjectID(w >> 56), w >> 8 & (1<<48 - 1), int(w & 0xFF)
}

func encodeRecord(buf []byte, id ObjectID, ver uint64) {
	for k := 0; k < recordWords; k++ {
		binary.LittleEndian.PutUint64(buf[8*k:], recordWord(id, ver, k))
	}
}

// decodeRecord returns the record's version, or an error naming the first
// word that does not belong to a whole record of id.
func decodeRecord(buf []byte, id ObjectID) (uint64, error) {
	got, ver, k := decodeWord(binary.LittleEndian.Uint64(buf))
	if got != id || k != 0 {
		return 0, fmt.Errorf("record of object %d: word 0 names object %d word %d", id, got, k)
	}
	for k := 1; k < recordWords; k++ {
		if got, want := binary.LittleEndian.Uint64(buf[8*k:]), recordWord(id, ver, k); got != want {
			return 0, fmt.Errorf("record of object %d version %d: word %d is %#x, want %#x", id, ver, k, got, want)
		}
	}
	return ver, nil
}

// recordOff places each record at a different offset inside its object.
func recordOff(id ObjectID) uint64 { return 64 * (uint64(id) % 4) }

// TestAccessNoTornReadsUnderEviction runs writers and readers of records
// through Access, and readers of their single words through Word, while
// another goroutine's demand misses and EvacuateAll evict their objects
// from under them: 8 local slots, 4 record objects, 50 others. No read may
// see a torn record, a word of another object or another index, or a
// version older than one the same reader saw before, and after the run
// every object holds its writer's last version. Resident reads take the
// lock-free path, so this is its check that a copy or a word load racing a
// store, an eviction or a slot's reuse is never kept.
func TestAccessNoTornReadsUnderEviction(t *testing.T) {
	const (
		objSize  = 256
		slots    = 8
		records  = 4 // ids 1..records; writer w owns the ids ≡ w (mod 2)
		others   = 50
		writers  = 2
		readers  = 3 // of records, and as many of words
		duration = 3 * time.Second
	)
	p, env, _ := newTestPool(t, objSize, (1+records+others)*objSize, slots*objSize)
	t.Cleanup(func() { p.Close() })
	// More threads than CPUs: the host then preempts a reader at any
	// instruction, inside the few between its metadata load and its copy
	// too, which is where a kept copy of a reused slot would come from.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4 * runtime.NumCPU()))
	var buf [recordWords * 8]byte
	for id := ObjectID(1); id <= records; id++ {
		encodeRecord(buf[:], id, 1)
		access(t, p, id, recordOff(id), buf[:], true)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 2*readers+writers+2) // one per goroutine, and the first torn read
	last := make([][records + 1]uint64, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var rec [recordWords * 8]byte
			ver := &last[w]
			for i := 0; !stop.Load(); i++ {
				id := ObjectID(1 + w + writers*(i%(records/writers)))
				if ver[id] == 0 {
					ver[id] = 1
				}
				ver[id]++
				encodeRecord(rec[:], id, ver[id])
				if err := p.Access(id, recordOff(id), rec[:], true); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	var reads, wordReads, torn atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRNG(seed)
			var rec [recordWords * 8]byte
			var seen [records + 1]uint64
			for !stop.Load() {
				id := ObjectID(1 + rng.Intn(records))
				if err := p.Access(id, recordOff(id), rec[:], false); err != nil {
					errs <- err
					return
				}
				reads.Add(1)
				ver, err := decodeRecord(rec[:], id)
				if err == nil && ver < seen[id] {
					err = fmt.Errorf("object %d went back from version %d to %d", id, seen[id], ver)
				}
				if err != nil {
					if torn.Add(1) == 1 {
						errs <- err
					}
					continue
				}
				seen[id] = ver
			}
		}(uint64(100 + r))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRNG(seed)
			var seen [records + 1]uint64
			for !stop.Load() {
				id, k := ObjectID(1+rng.Intn(records)), rng.Intn(recordWords)
				w, err := p.Word(id, recordOff(id)+8*uint64(k), 0, false)
				if err != nil {
					errs <- err
					return
				}
				wordReads.Add(1)
				gotID, ver, gotK := decodeWord(w)
				switch {
				case gotID != id || gotK != k:
					err = fmt.Errorf("word %d of object %d reads %#x: word %d of object %d", k, id, w, gotK, gotID)
				case ver < seen[id]:
					err = fmt.Errorf("word %d of object %d went back from version %d to %d", k, id, seen[id], ver)
				}
				if err != nil {
					if torn.Add(1) == 1 {
						errs <- err
					}
					continue
				}
				seen[id] = ver
			}
		}(uint64(200 + r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := sim.NewRNG(7)
		var word [8]byte
		for i := 1; !stop.Load(); i++ {
			id := ObjectID(1 + records + rng.Intn(others))
			if err := p.Access(id, uint64(rng.Intn(objSize/8))*8, word[:], rng.Intn(2) == 0); err != nil {
				errs <- err
				return
			}
			if i%64 == 0 {
				p.EvacuateAll()
			}
		}
	}()
	time.Sleep(duration)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := torn.Load(); n > 0 {
		t.Fatalf("%d of %d reads were torn or stale", n, reads.Load()+wordReads.Load())
	}
	t.Logf("%d record reads, %d word reads, %d evictions", reads.Load(), wordReads.Load(), env.Counters.Evacuations)
	if env.Counters.Evacuations == 0 || reads.Load() == 0 || wordReads.Load() == 0 {
		t.Fatalf("the run did not exercise the race: %d evictions, %d record reads, %d word reads",
			env.Counters.Evacuations, reads.Load(), wordReads.Load())
	}
	for id := ObjectID(1); id <= records; id++ {
		want := last[(int(id)-1)%writers][id]
		if want == 0 {
			want = 1
		}
		access(t, p, id, recordOff(id), buf[:], false)
		ver, err := decodeRecord(buf[:], id)
		if err != nil {
			t.Fatalf("after the run: %v", err)
		}
		if ver != want {
			t.Fatalf("object %d holds version %d after the run, its writer last stored %d", id, ver, want)
		}
	}
}

// TestSeqMutex holds the lock word to its contract: odd while held, 2 more
// per critical section, and TryLock refused while held.
func TestSeqMutex(t *testing.T) {
	var l seqMutex
	for i := uint64(0); i < 3; i++ {
		l.Lock()
		if s := l.seq.Load(); s != 2*i+1 {
			t.Fatalf("section %d: seq %d while held, want %d", i, s, 2*i+1)
		}
		if l.TryLock() {
			t.Fatal("TryLock succeeded while the lock was held")
		}
		if _, ok := l.readBegin(); ok {
			t.Fatal("readBegin accepted a held lock")
		}
		l.Unlock()
		s, ok := l.readBegin()
		if !ok || s != 2*i+2 {
			t.Fatalf("section %d: seq %d after Unlock, want %d", i, s, 2*i+2)
		}
		if !l.readValid(s) {
			t.Fatal("readValid refused an unmoved sequence")
		}
	}
	s, _ := l.readBegin()
	if !l.TryLock() {
		t.Fatal("TryLock failed on a free lock")
	}
	l.Unlock()
	if l.readValid(s) {
		t.Fatal("readValid accepted a sequence a critical section moved")
	}
}

// TestSeqMutexNoLostWakeup has goroutines increment a plain counter under
// Lock while one holder sleeps inside its section, so they all queue on
// the sleepers' condition; a lost wake-up hangs the test, and a section
// that was not exclusive loses an increment (or, under -race, is reported).
func TestSeqMutexNoLostWakeup(t *testing.T) {
	const workers, iters = 8, 2000
	var l seqMutex
	counter := 0
	l.Lock()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l.Lock()
				counter++
				l.Unlock()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	counter++
	l.Unlock()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("lock waiters never woke: a wake-up was lost")
	}
	if counter != workers*iters+1 {
		t.Fatalf("counter %d, want %d", counter, workers*iters+1)
	}
	if s := l.seq.Load(); s != 2*(workers*iters+1) {
		t.Fatalf("seq %d after %d sections, want %d", s, workers*iters+1, 2*(workers*iters+1))
	}
}

// TestResidentReadKeepsItsEffects checks that the reads the lock-free path
// declines still have their effects: the first read of a prefetched object
// counts one prefetch hit (and the next none), and a read of a resident
// whose H bit the clock cleared sets it again.
func TestResidentReadKeepsItsEffects(t *testing.T) {
	p, env, _ := newTestPool(t, 64, 1<<12, 1<<10)
	t.Cleanup(func() { p.Close() })
	var buf [8]byte
	const pf = ObjectID(5)
	p.Prefetch(pf)
	if m := p.Meta(pf); !m.Present() || !m.Prefetched() {
		t.Fatalf("object %d not a resident prefetch: %#x", pf, uint64(m))
	}
	for i := 0; i < 2; i++ {
		access(t, p, pf, 0, buf[:], false)
		if got := env.Counters.PrefetchHits; got != 1 {
			t.Fatalf("read %d of a prefetched object: %d prefetch hits, want 1", i+1, got)
		}
	}
	if m := p.Meta(pf); m.Prefetched() || !m.Hot() {
		t.Fatalf("consumed prefetch: PF %v H %v, want PF clear, H set", m.Prefetched(), m.Hot())
	}

	const cold = ObjectID(9)
	access(t, p, cold, 0, buf[:], true)
	st := p.stripeFor(cold)
	p.lockStripe(st)
	p.storeMeta(cold, p.metaAt(cold)&^MetaH) // what a clock sweep does
	st.mu.Unlock()
	access(t, p, cold, 0, buf[:], false)
	if m := p.Meta(cold); !m.Hot() {
		t.Fatal("a read of an H-clear resident left H clear")
	}
	if got, want := p.cold.Load(), recountCold(p); got != want {
		t.Fatalf("cold count %d, table holds %d", got, want)
	}
}

// TestWordMatchesAccess holds Word to Access: twin pools brought to one
// state, then the same 8-byte read or write through each entry, must
// return the same word and leave the same metadata word, counters and
// clock — or, where the fetch fails, the same typed error with the claimed
// slot back in circulation and nothing else changed.
func TestWordMatchesAccess(t *testing.T) {
	const id, off = ObjectID(5), uint64(24)
	const held, stored = uint64(0x1122334455667788), uint64(0xA5A5_0000_FFFF_0001)
	// plain is a four-slot pool over SimLink with id holding held, resident
	// and dirty; outage is the same over a FaultLink whose outage takes the
	// transport operation after the preparation's.
	plain := func(t *testing.T) (*Pool, *sim.Env) {
		p, env, _ := newTestPool(t, 64, 64*16, 64*4)
		t.Cleanup(func() { p.Close() })
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], held)
		access(t, p, id, off, buf[:], true)
		return p, env
	}
	outage := func(t *testing.T, at int) (*Pool, *sim.Env, *fabric.FaultLink) {
		env := sim.NewEnv()
		link := fabric.NewFaultLink(fabric.NewSimLink(env, fabric.BackendTCP),
			fabric.FaultConfig{OutageEvery: at, OutageLen: 1})
		p, err := NewPool(Config{Env: env, RemoteConfig: fabric.RemoteConfig{Transport: link, RemoteRetries: 1},
			ObjectSize: 64, HeapSize: 64 * 16, LocalBudget: 64 * 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], held)
		access(t, p, id, off, buf[:], true)
		p.EvacuateAll()
		return p, env, link
	}
	_, _, probe := outage(t, 0)
	setupOps := int(probe.Stats().Ops)

	states := []struct {
		name    string
		prepare func(t *testing.T) (*Pool, *sim.Env)
		want    error // of the access, nil: it succeeds
		check   func(t *testing.T, p *Pool, env *sim.Env, write bool)
	}{
		{"resident hot", plain, nil, nil},
		{"resident cold", func(t *testing.T) (*Pool, *sim.Env) {
			p, env := plain(t)
			st := p.stripeFor(id)
			p.lockStripe(st)
			p.storeMeta(id, p.metaAt(id)&^MetaH) // what a clock sweep does
			st.mu.Unlock()
			return p, env
		}, nil, func(t *testing.T, p *Pool, _ *sim.Env, _ bool) {
			if !p.Meta(id).Hot() {
				t.Error("H still clear after the access")
			}
		}},
		{"prefetched", func(t *testing.T) (*Pool, *sim.Env) {
			p, env := plain(t)
			p.EvacuateAll()
			p.Prefetch(id)
			if m := p.Meta(id); !m.Present() || !m.Prefetched() {
				t.Fatalf("object %d not a resident prefetch: %#x", id, uint64(m))
			}
			return p, env
		}, nil, func(t *testing.T, p *Pool, env *sim.Env, _ bool) {
			if n := env.Counters.PrefetchHits; n != 1 {
				t.Errorf("%d prefetch hits, want 1", n)
			}
		}},
		{"absent", func(t *testing.T) (*Pool, *sim.Env) {
			p, env := plain(t)
			p.EvacuateAll()
			return p, env
		}, nil, func(t *testing.T, _ *Pool, env *sim.Env, _ bool) {
			if n := env.Counters.RemoteFetches; n != 1 {
				t.Errorf("%d remote fetches, want 1", n)
			}
		}},
		{"resident clean", func(t *testing.T) (*Pool, *sim.Env) {
			p, env := plain(t)
			p.EvacuateAll()
			touch(t, p, id, false)
			if p.Meta(id).Dirty() {
				t.Fatal("a read fetch left D set")
			}
			return p, env
		}, nil, func(t *testing.T, p *Pool, _ *sim.Env, write bool) {
			if p.Meta(id).Dirty() != write {
				t.Errorf("D %v after the access, want %v", p.Meta(id).Dirty(), write)
			}
		}},
		{"FaultLink outage", func(t *testing.T) (*Pool, *sim.Env) {
			p, env, _ := outage(t, setupOps+1)
			return p, env
		}, fabric.ErrRemoteUnavailable, nil},
	}
	type result struct {
		word     uint64
		err      error
		meta     Meta
		counters sim.Counters
		cycles   uint64
	}
	for _, st := range states {
		for _, write := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/write=%v", st.name, write), func(t *testing.T) {
				var res [2]result
				var pools [2]*Pool
				for k, entry := range []string{"Access", "Word"} {
					p, env := st.prepare(t)
					pools[k] = p
					meta, free, reserve, resident := p.Meta(id), p.freeCount(), p.ReserveFree(), p.ResidentSlots()
					r := &res[k]
					if entry == "Access" {
						var buf [8]byte
						binary.LittleEndian.PutUint64(buf[:], stored)
						r.err = p.Access(id, off, buf[:], write)
						r.word = binary.LittleEndian.Uint64(buf[:])
					} else {
						v := uint64(0)
						if write {
							v = stored
						}
						r.word, r.err = p.Word(id, off, v, write)
					}
					r.meta, r.counters, r.cycles = p.Meta(id), env.Counters.Snapshot(), env.Clock.Cycles()
					if st.want == nil {
						if r.err != nil {
							t.Fatalf("%s: %v", entry, r.err)
						}
						want := held
						if write {
							want = stored
						}
						if r.word != want {
							t.Errorf("%s returned %#x, want %#x", entry, r.word, want)
						}
						if st.check != nil {
							st.check(t, p, env, write)
						}
						continue
					}
					if !errors.Is(r.err, st.want) {
						t.Fatalf("%s: error %v, want %v", entry, r.err, st.want)
					}
					if r.meta != meta {
						t.Errorf("%s: metadata word %#x after the failure, want %#x", entry, uint64(r.meta), uint64(meta))
					}
					if f, rs, n := p.freeCount(), p.ReserveFree(), p.ResidentSlots(); f != free || rs != reserve || n != resident {
						t.Errorf("%s: %d free, %d reserve, %d resident slots after the failure, want %d, %d, %d",
							entry, f, rs, n, free, reserve, resident)
					}
					if n := p.PinnedObjects(); n != 0 {
						t.Errorf("%s: %d objects pinned after the failure", entry, n)
					}
				}
				if st.want == nil && res[0].word != res[1].word {
					t.Errorf("Access left %#x, Word returned %#x", res[0].word, res[1].word)
				}
				if res[0].meta != res[1].meta {
					t.Errorf("metadata word: Access %#x, Word %#x", uint64(res[0].meta), uint64(res[1].meta))
				}
				if res[0].counters != res[1].counters {
					t.Errorf("counters: Access %v, Word %v", res[0].counters.String(), res[1].counters.String())
				}
				if res[0].cycles != res[1].cycles {
					t.Errorf("clock: Access %d, Word %d", res[0].cycles, res[1].cycles)
				}
				// The object holds the same bytes either way.
				var a, w [8]byte
				for k, buf := range [][]byte{a[:], w[:]} {
					if err := pools[k].Access(id, off, buf, false); err != nil && st.want == nil {
						t.Fatal(err)
					}
				}
				if a != w {
					t.Errorf("the object holds %x after Access, %x after Word", a, w)
				}
			})
		}
	}
}
