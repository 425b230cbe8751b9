package aifm

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trackfm/internal/sim"
)

// A record is a self-describing 64-byte value: its object id, its version,
// and six words derived from both, so a reader can tell a whole record
// from one torn between two versions, or read from a recycled slot.
const recordWords = 8

func recordWord(id ObjectID, ver uint64, k int) uint64 {
	x := uint64(id)<<40 ^ ver<<8 ^ uint64(k) + 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

func encodeRecord(buf []byte, id ObjectID, ver uint64) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(id))
	binary.LittleEndian.PutUint64(buf[8:], ver)
	for k := 2; k < recordWords; k++ {
		binary.LittleEndian.PutUint64(buf[8*k:], recordWord(id, ver, k))
	}
}

// decodeRecord returns the record's version, or an error naming the first
// word that does not belong to a whole record of id.
func decodeRecord(buf []byte, id ObjectID) (uint64, error) {
	if got := ObjectID(binary.LittleEndian.Uint64(buf[0:])); got != id {
		return 0, fmt.Errorf("record of object %d names object %d", id, got)
	}
	ver := binary.LittleEndian.Uint64(buf[8:])
	for k := 2; k < recordWords; k++ {
		if got, want := binary.LittleEndian.Uint64(buf[8*k:]), recordWord(id, ver, k); got != want {
			return 0, fmt.Errorf("record of object %d version %d: word %d is %#x, want %#x", id, ver, k, got, want)
		}
	}
	return ver, nil
}

// recordOff places each record at a different offset inside its object.
func recordOff(id ObjectID) uint64 { return 64 * (uint64(id) % 4) }

// TestAccessNoTornReadsUnderEviction runs writers and readers of records
// through Access while another goroutine's demand misses and EvacuateAll
// evict their objects from under them: 8 local slots, 4 record objects, 50
// others. No read may see a torn record or one older than a record the
// same reader saw before, and after the run every object holds its
// writer's last version. Resident reads take the lock-free path, so this
// is its check that a copy racing a store, an eviction or a slot's reuse is
// never kept.
func TestAccessNoTornReadsUnderEviction(t *testing.T) {
	const (
		objSize  = 256
		slots    = 8
		records  = 4 // ids 1..records; writer w owns the ids ≡ w (mod 2)
		others   = 50
		writers  = 2
		readers  = 3
		duration = 3 * time.Second
	)
	p, env, _ := newTestPool(t, objSize, (1+records+others)*objSize, slots*objSize)
	t.Cleanup(func() { p.Close() })
	var buf [recordWords * 8]byte
	for id := ObjectID(1); id <= records; id++ {
		encodeRecord(buf[:], id, 1)
		p.Access(id, recordOff(id), buf[:], true)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+writers+1)
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
				p.Access(id, recordOff(id), rec[:], true)
			}
		}(w)
	}
	var reads, torn atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := sim.NewRNG(seed)
			var rec [recordWords * 8]byte
			var seen [records + 1]uint64
			for !stop.Load() {
				id := ObjectID(1 + rng.Intn(records))
				p.Access(id, recordOff(id), rec[:], false)
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := sim.NewRNG(7)
		var word [8]byte
		for i := 1; !stop.Load(); i++ {
			id := ObjectID(1 + records + rng.Intn(others))
			p.Access(id, uint64(rng.Intn(objSize/8))*8, word[:], rng.Intn(2) == 0)
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
		t.Fatalf("%d of %d reads were torn or stale", n, reads.Load())
	}
	t.Logf("%d reads, %d evictions", reads.Load(), env.Counters.Evacuations)
	if env.Counters.Evacuations == 0 || reads.Load() == 0 {
		t.Fatalf("the run did not exercise the race: %d evictions, %d reads", env.Counters.Evacuations, reads.Load())
	}
	for id := ObjectID(1); id <= records; id++ {
		want := last[(int(id)-1)%writers][id]
		if want == 0 {
			want = 1
		}
		p.Access(id, recordOff(id), buf[:], false)
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
		p.Access(pf, 0, buf[:], false)
		if got := env.Counters.PrefetchHits; got != 1 {
			t.Fatalf("read %d of a prefetched object: %d prefetch hits, want 1", i+1, got)
		}
	}
	if m := p.Meta(pf); m.Prefetched() || !m.Hot() {
		t.Fatalf("consumed prefetch: PF %v H %v, want PF clear, H set", m.Prefetched(), m.Hot())
	}

	const cold = ObjectID(9)
	p.Access(cold, 0, buf[:], true)
	st := p.stripeFor(cold)
	p.lockStripe(st)
	p.storeMeta(cold, p.metaAt(cold)&^MetaH) // what a clock sweep does
	st.mu.Unlock()
	p.Access(cold, 0, buf[:], false)
	if m := p.Meta(cold); !m.Hot() {
		t.Fatal("a read of an H-clear resident left H clear")
	}
	if got, want := p.cold.Load(), recountCold(p); got != want {
		t.Fatalf("cold count %d, table holds %d", got, want)
	}
}
