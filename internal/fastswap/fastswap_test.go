package fastswap

import (
	"testing"

	"trackfm/internal/sim"
)

func newTestSwap(t *testing.T, heap, budget uint64, opts ...func(*Config)) *Swap {
	t.Helper()
	cfg := Config{
		Env:      sim.NewEnv(),
		HeapSize: heap, LocalBudget: budget,
	}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := New(cfg)
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

func TestResizeShrinkAndGrow(t *testing.T) {
	// 8 frames now, capacity for 16.
	s := newTestSwap(t, 1<<22, 8*4096, func(c *Config) { c.MaxLocalBudget = 16 * 4096 })
	base := s.MustMalloc(16 * 4096)
	for pg := uint64(0); pg < 16; pg++ {
		s.StoreU64(base+pg*4096, pg) // dirty every page
	}
	if got := s.ResidentBytes(); got != 8*4096 {
		t.Fatalf("resident = %d, want %d", got, 8*4096)
	}
	// Shrink to 3 frames: clock reclaim must write back and retire
	// mapped pages synchronously.
	if err := s.Resize(3 * 4096); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if got := s.ResidentBytes(); got > 3*4096 {
		t.Fatalf("post-shrink resident = %d, want <= %d", got, 3*4096)
	}
	// Grow to the full capacity and beyond it.
	if err := s.Resize(16 * 4096); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if err := s.Resize(17 * 4096); err == nil {
		t.Fatalf("grow past MaxLocalBudget accepted")
	}
	if err := s.Resize(0); err == nil {
		t.Fatalf("zero-frame budget accepted")
	}
	// No data lost across the squeeze.
	for pg := uint64(0); pg < 16; pg++ {
		if got := s.LoadU64(base + pg*4096); got != pg {
			t.Fatalf("page %d = %d after resize", pg, got)
		}
	}
	if s.ResidentBytes() > 16*4096 {
		t.Fatalf("resident %d exceeds grown budget", s.ResidentBytes())
	}
}

func TestResizeBudgetInvariantUnderLoad(t *testing.T) {
	s := newTestSwap(t, 1<<22, 8*4096, func(c *Config) { c.MaxLocalBudget = 8 * 4096 })
	s.MustMalloc(1 << 20)
	rng := sim.NewRNG(7)
	budget := uint64(8 * 4096)
	for i := 0; i < 2000; i++ {
		if i%500 == 250 {
			budget = uint64(2+rng.Intn(7)) * 4096
			if err := s.Resize(budget); err != nil {
				t.Fatalf("Resize(%d): %v", budget, err)
			}
		}
		off := uint64(rng.Intn(1<<20)) &^ 7
		s.StoreU64(off, uint64(i))
		if got := s.ResidentBytes(); got > budget {
			t.Fatalf("iter %d: resident %d exceeds budget %d", i, got, budget)
		}
	}
}
