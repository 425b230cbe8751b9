package bufpool

import (
	"runtime"
	"sync"
	"testing"
)

func TestSizeClassRounding(t *testing.T) {
	p := New()
	cases := []struct {
		req, cap int
	}{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {128, 128},
		{129, 256}, {1000, 1024}, {4096, 4096}, {4097, 8192},
		{MaxSize - 1, MaxSize}, {MaxSize, MaxSize},
	}
	for _, c := range cases {
		l := p.Get(c.req)
		b := l.Bytes()
		if len(b) != c.req || cap(b) != c.cap {
			t.Errorf("Get(%d): len %d cap %d, want len %d cap %d",
				c.req, len(b), cap(b), c.req, c.cap)
		}
		l.Release()
	}
}

func TestOversizeIsForeign(t *testing.T) {
	p := New()
	l := p.Get(MaxSize + 1)
	if len(l.Bytes()) != MaxSize+1 {
		t.Fatalf("oversize len %d", len(l.Bytes()))
	}
	l.Release()
	s := p.Stats()
	if s.Gets != 1 || s.Misses != 1 || s.Puts != 1 || s.ForeignFrees != 1 {
		t.Fatalf("oversize stats %+v", s)
	}
}

func TestReuseAfterRelease(t *testing.T) {
	p := New()
	l := p.Get(4096)
	first := &l.Bytes()[0]
	l.Release()
	l2 := p.Get(4000) // same class
	defer l2.Release()
	if &l2.Bytes()[:4096][0] != first {
		t.Fatalf("released buffer was not reused")
	}
	if s := p.Stats(); s.Misses != 1 {
		t.Fatalf("second get missed: %+v", s)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	p := New()
	l := p.Get(64)
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double release did not panic")
		}
	}()
	l.Release()
}

func TestDoubleReleaseViaCopyPanicsInDebug(t *testing.T) {
	SetDebug(true)
	defer SetDebug(RaceEnabled)
	p := New()
	l := p.Get(64)
	cp := l
	l.Release()
	defer func() {
		if recover() == nil {
			t.Fatalf("double release through a copied lease did not panic")
		}
	}()
	cp.Release()
}

func TestZeroLeaseReleaseIsNoop(t *testing.T) {
	var l Lease
	if l.Bytes() != nil {
		t.Fatalf("zero lease has bytes")
	}
	l.Release() // must not panic
}

func TestOutstandingTracksLeaks(t *testing.T) {
	SetDebug(true)
	defer SetDebug(RaceEnabled)
	p := New()
	base := Outstanding()
	l1, l2 := p.Get(512), p.Get(8192)
	if d := Outstanding() - base; d != 2 {
		t.Fatalf("outstanding delta %d, want 2", d)
	}
	l1.Release()
	l2.Release()
	if d := Outstanding() - base; d != 0 {
		t.Fatalf("outstanding delta after release %d, want 0", d)
	}
}

// TestSlabExactSize: a fixed-size caller's unit (an aifm object, a page) is
// an exact class, so its lease is exactly that long, with no spare
// capacity, and a released buffer is the next one that size is served.
func TestSlabExactSize(t *testing.T) {
	p := New()
	l := p.Get(4096)
	if len(l.Bytes()) != 4096 || cap(l.Bytes()) != 4096 {
		t.Fatalf("exact-class buffer len %d cap %d", len(l.Bytes()), cap(l.Bytes()))
	}
	first := &l.Bytes()[0]
	l.Release()
	l2 := p.Get(4096)
	defer l2.Release()
	if &l2.Bytes()[0] != first {
		t.Fatalf("exact-class buffer not reused")
	}
	if s := p.Stats(); s.Gets != 2 || s.Misses != 1 || s.Puts != 1 {
		t.Fatalf("stats %+v, want 2 gets, 1 miss, 1 put", s)
	}
}

// TestReservoirSurvivesGC pins the bounded free list's reason to exist:
// buffers parked in it are still served after GC cycles that would have
// emptied a bare sync.Pool (whose victim cache drops everything within two
// collections).
func TestReservoirSurvivesGC(t *testing.T) {
	p := New()
	var leases []Lease
	for i := 0; i < reservoirMin; i++ {
		leases = append(leases, p.Get(1<<15))
	}
	for _, l := range leases {
		l := l
		l.Release()
	}
	runtime.GC()
	runtime.GC()
	runtime.GC()
	before := p.Stats().Misses
	for i := 0; i < reservoirMin; i++ {
		l := p.Get(1 << 15)
		defer l.Release()
	}
	if after := p.Stats().Misses; after != before {
		t.Fatalf("reservoir buffers were collected: %d new misses", after-before)
	}
}

// TestConcurrentGetPut is the -race workout: hammered get/put across
// goroutines with per-buffer payload checks, so a buffer served to two
// holders at once shows up as either a race report or a payload mismatch.
func TestConcurrentGetPut(t *testing.T) {
	SetDebug(true)
	defer SetDebug(RaceEnabled)
	p := New()
	base := Outstanding()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sizes := []int{64, 100, 1024, 4096, 9000}
			for i := 0; i < iters; i++ {
				l := p.Get(sizes[(w+i)%len(sizes)])
				b := l.Bytes()
				mark := byte(w<<4 | i&0xF)
				for j := range b {
					b[j] = mark
				}
				for j := range b {
					if b[j] != mark {
						t.Errorf("worker %d iter %d: buffer shared", w, i)
						break
					}
				}
				l.Release()
			}
		}(w)
	}
	wg.Wait()
	if d := Outstanding() - base; d != 0 {
		t.Fatalf("leaked %d leases", d)
	}
	s := p.Stats()
	if s.Gets != workers*iters || s.Puts != workers*iters {
		t.Fatalf("stats: %+v", s)
	}
}

// TestGetIsAllocFreeWarm pins the pool's own cost: a warm get/release
// cycle must not allocate.
func TestGetIsAllocFreeWarm(t *testing.T) {
	if RaceEnabled {
		t.Skip("allocation accounting differs under -race")
	}
	p := New()
	warm := p.Get(4096)
	warm.Release()
	if n := testing.AllocsPerRun(200, func() {
		l := p.Get(4096)
		l.Release()
	}); n != 0 {
		t.Fatalf("warm get/release allocated %v times per run", n)
	}
}
