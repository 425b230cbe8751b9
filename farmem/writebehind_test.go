package farmem

import (
	"sync/atomic"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// puttingStore counts the pushes that reach the store.
type puttingStore struct {
	*remote.Store
	puts atomic.Uint64
}

func (s *puttingStore) Put(key uint64, src []byte) error {
	s.puts.Add(1)
	return s.Store.Put(key, src)
}

// TestDirtyMissIsOneExchange: one caller, random loads and stores half and
// half over a slice four times local memory, over a loopback server — the
// shape of fmbench's miss-write-durable and miss-mixed-mt. A miss that
// evicts a dirty object used to be two round trips, the victim's push and
// then the fetch; the push now rides ahead of the fetch in one exchange.
// Seen from the counters, for a fixed seed and op count: the server serves
// the frames it always served but answers a dirty miss's two with one
// write, and nearly every push is carried. (Nothing is served from the
// window here: with one caller a parked victim leaves with the very next
// fetch. TestWindowLifetimeRace's write-heavy rows have the callers and
// the squeezes that make loads meet parked copies.)
func TestDirtyMissIsOneExchange(t *testing.T) {
	store := &puttingStore{Store: remote.NewStore()}
	srv := fabric.NewServer(store)
	srv.EnableAdmission(fabric.AdmissionConfig{})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	tr, err := fabric.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	const n, local, ops = 64 << 10, 128 << 10, 20000 // 512 KiB of elements over 128 KiB of local memory
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: local, ObjectBytes: 4096,
		RemoteConfig: fabric.RemoteConfig{Transport: tr}})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	s, _ := NewUint64s(h, n)
	shadow := make([]uint64, n)
	for i := range shadow {
		shadow[i] = uint64(i) * 3
		s.Set(i, shadow[i])
	}
	s.Range(func(i int, v uint64) bool { // every object now has a far copy, and residents are clean
		if v != shadow[i] {
			t.Fatalf("element %d = %d after the fill, want %d", i, v, shadow[i])
		}
		return true
	})

	frames, flushes, puts := srv.Stats().Frames(), srv.Stats().Flushes(), store.puts.Load()
	carried := tr.Stats().CarriedPushes()
	rng := sim.NewRNG(1)
	for op := 0; op < ops; op++ {
		i := rng.Intn(n)
		if rng.Uint64()&1 == 0 {
			shadow[i] = rng.Uint64()
			s.Set(i, shadow[i])
		} else if got := s.At(i); got != shadow[i] {
			t.Fatalf("op %d: element %d = %d, want %d", op, i, got, shadow[i])
		}
	}
	frames, flushes, puts = srv.Stats().Frames()-frames, srv.Stats().Flushes()-flushes, store.puts.Load()-puts
	carried = tr.Stats().CarriedPushes() - carried
	t.Logf("%d ops: server frames %d (pushes %d), flushes %d (%.2f per frame); pushes carried %d",
		ops, frames, puts, flushes, float64(flushes)/float64(frames), carried)
	if puts == 0 || frames <= puts {
		t.Fatalf("%d pushes among %d frames: the mix did not evict dirty objects and fetch", puts, frames)
	}
	if carried*10 < puts*9 {
		t.Errorf("%d of %d pushes were carried, want at least nine in ten", carried, puts)
	}
	// One flush per fetch and none per carried push is fetches/frames, about
	// 0.63 on this mix; the parent's was 1 whatever the mix.
	if flushes*100 > frames*75 {
		t.Errorf("server flushed %d times for %d frames, want at most 0.75 per frame", flushes, frames)
	}
}
