package fastswap

import (
	"math"
	"strings"
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
	s.MustMalloc(0)
	for _, n := range []uint64{1 << 14, math.MaxUint64 - 15} { // the second wraps past 2^64 from the next 16-byte boundary
		if _, err := s.Malloc(n); err == nil {
			t.Fatalf("over-heap Malloc(%d) succeeded", n)
		}
	}
}

func TestOutOfHeapAccessPanics(t *testing.T) {
	s := newTestSwap(t, 1<<13, 1<<13)
	for _, off := range []uint64{1 << 13, math.MaxUint64 - 3} { // the second's end wraps past 2^64
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "beyond heap end") {
					t.Fatalf("LoadU64(%#x): panic = %q, want the heap-end panic", off, r)
				}
			}()
			s.LoadU64(off)
		}()
	}
}
