package fastswap

import (
	"testing"

	"trackfm/internal/sim"
)

func newTestSwap(t *testing.T, heap, budget uint64) *Swap {
	t.Helper()
	s, err := New(Config{Env: sim.NewEnv(), HeapSize: heap, LocalBudget: budget})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	env := sim.NewEnv()
	bad := []Config{
		{HeapSize: 1 << 16, LocalBudget: 1 << 13},
		{Env: env, LocalBudget: 1 << 13},
		{Env: env, HeapSize: 1 << 16},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	newTestSwap(t, 1<<16, 1<<13)
}

func TestFirstTouchIsMinorFault(t *testing.T) {
	s := newTestSwap(t, 1<<20, 1<<16)
	env := s.Env()
	off := s.MustMalloc(8)
	before := env.Clock.Cycles()
	s.StoreU64(off, 42)
	charged := env.Clock.Cycles() - before
	want := env.Costs.SwapFaultLocal + env.Costs.LocalLoadStore
	if charged != want {
		t.Fatalf("first touch charged %d, want %d", charged, want)
	}
	if env.Counters.MinorFaults != 1 || env.Counters.MajorFaults != 0 {
		t.Fatalf("faults = %d/%d", env.Counters.MinorFaults, env.Counters.MajorFaults)
	}
}

func TestMappedAccessIsFree(t *testing.T) {
	// The kernel approach's advantage: zero software overhead once a
	// page is mapped.
	s := newTestSwap(t, 1<<20, 1<<16)
	env := s.Env()
	off := s.MustMalloc(8)
	s.StoreU64(off, 42)
	before := env.Clock.Cycles()
	s.LoadU64(off)
	if got := env.Clock.Cycles() - before; got != env.Costs.LocalLoadStore {
		t.Fatalf("mapped access charged %d, want %d", got, env.Costs.LocalLoadStore)
	}
}

func TestRemoteFaultCostAndData(t *testing.T) {
	s := newTestSwap(t, 1<<20, 4096) // one frame
	env := s.Env()
	a := s.MustMalloc(4096)
	b := s.MustMalloc(4096)
	s.StoreU64(a, 111) // page A mapped, dirty
	s.StoreU64(b, 222) // evicts A (dirty -> pushed), maps B
	if env.Counters.PageEvictions != 1 {
		t.Fatalf("PageEvictions = %d", env.Counters.PageEvictions)
	}
	before := env.Clock.Cycles()
	if got := s.LoadU64(a); got != 111 { // major fault, evicts B
		t.Fatalf("page A data lost: %d", got)
	}
	charged := env.Clock.Cycles() - before
	// Kernel fault path + RDMA pull, plus the eviction of page B that
	// makes room; the fault itself must land near the paper's ~34K.
	min := env.Costs.SwapFaultLocal + env.Costs.RemotePageFetch(4096)
	if charged < min {
		t.Fatalf("major fault charged %d, want >= %d", charged, min)
	}
	if charged > min+10_000 {
		t.Fatalf("major fault charged %d, far above %d", charged, min)
	}
	if env.Counters.MajorFaults != 1 {
		t.Fatalf("MajorFaults = %d", env.Counters.MajorFaults)
	}
}

func TestResidentBudgetInvariant(t *testing.T) {
	s := newTestSwap(t, 1<<22, 1<<14) // 4 frames
	rng := sim.NewRNG(5)
	for i := 0; i < 3000; i++ {
		off := uint64(rng.Intn(1 << 20))
		if i == 0 {
			s.MustMalloc(1 << 20)
		}
		s.StoreU64(off&^7, uint64(i))
		if s.ResidentBytes() > 1<<14 {
			t.Fatalf("resident %d exceeds cgroup budget", s.ResidentBytes())
		}
	}
}

func TestDataIntegrityAcrossEvictions(t *testing.T) {
	s := newTestSwap(t, 1<<22, 2*4096) // 2 frames, many pages
	s.MustMalloc(64 * 4096)
	want := map[uint64]uint64{}
	rng := sim.NewRNG(11)
	for step := 0; step < 4000; step++ {
		pg := uint64(rng.Intn(64))
		off := pg*4096 + uint64(rng.Intn(512))*8
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			s.StoreU64(off, v)
			want[off] = v
		} else if v, ok := want[off]; ok {
			if got := s.LoadU64(off); got != v {
				t.Fatalf("step %d: off %#x = %d, want %d", step, off, got, v)
			}
		}
	}
}

func TestIOAmplification(t *testing.T) {
	// Touch one u64 per remote page: Fastswap must transfer the full
	// 4 KB page each time — the paper's I/O amplification story.
	s := newTestSwap(t, 1<<22, 4096)
	env := s.Env()
	base := s.MustMalloc(16 * 4096)
	for pg := uint64(0); pg < 16; pg++ {
		s.StoreU64(base+pg*4096, 1)
	}
	s.EvacuateAll()
	env.Counters.Reset()
	for _, pg := range []uint64{9, 2, 14, 5, 11, 0} { // random: no readahead
		s.LoadU64(base + pg*4096)
	}
	wantBytes := uint64(6 * 4096)
	if env.Counters.BytesFetched != wantBytes {
		t.Fatalf("BytesFetched = %d, want %d (full pages for 8B reads)", env.Counters.BytesFetched, wantBytes)
	}
}

func TestMallocExhaustion(t *testing.T) {
	s := newTestSwap(t, 1<<13, 1<<13)
	if _, err := s.Malloc(1 << 14); err == nil {
		t.Fatalf("over-heap Malloc succeeded")
	}
	if _, err := s.Malloc(0); err != nil {
		t.Fatalf("Malloc(0): %v", err)
	}
}

func TestOutOfHeapAccessPanics(t *testing.T) {
	s := newTestSwap(t, 1<<13, 1<<13)
	defer func() {
		if recover() == nil {
			t.Fatalf("out-of-heap access did not panic")
		}
	}()
	s.LoadU64(1 << 13)
}

func TestCrossPageAccess(t *testing.T) {
	s := newTestSwap(t, 1<<20, 1<<16)
	base := s.MustMalloc(3 * 4096)
	src := make([]byte, 8192)
	for i := range src {
		src[i] = byte(i * 7)
	}
	s.Store(base+100, src) // spans 3 pages
	dst := make([]byte, 8192)
	s.Load(base+100, dst)
	for i := range dst {
		if dst[i] != byte(i*7) {
			t.Fatalf("byte %d mismatch", i)
		}
	}
}
