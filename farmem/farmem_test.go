package farmem

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

func newTestHeap(t *testing.T, heap, local uint64) *Heap {
	t.Helper()
	h, err := New(Config{HeapBytes: heap, LocalBytes: local})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return h
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatalf("empty config accepted")
	}
	if _, err := New(Config{HeapBytes: 1 << 20}); err == nil {
		t.Fatalf("missing LocalBytes accepted")
	}
	if _, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 1 << 16, ObjectBytes: 100}); err == nil {
		t.Fatalf("bad object size accepted")
	}
	if _, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 1 << 16,
		RemoteConfig: fabric.RemoteConfig{RemoteAddr: "127.0.0.1:1"}}); err == nil {
		t.Fatalf("dead remote accepted")
	}
}

func TestUint64sRoundTripUnderPressure(t *testing.T) {
	h := newTestHeap(t, 1<<22, 1<<14) // 16 KB local, far bigger slice
	s, err := NewUint64s(h, 1<<14)    // 128 KB
	if err != nil {
		t.Fatalf("NewUint64s: %v", err)
	}
	for i := 0; i < s.Len(); i++ {
		s.Set(i, uint64(i*3))
	}
	for i := 0; i < s.Len(); i += 997 {
		if got := s.At(i); got != uint64(i*3) {
			t.Fatalf("At(%d) = %d", i, got)
		}
	}
	st := h.Stats()
	if st.RemoteFetches == 0 || st.BytesEvicted == 0 {
		t.Fatalf("no far-memory traffic under pressure: %+v", st)
	}
}

func TestRangeMatchesAt(t *testing.T) {
	h := newTestHeap(t, 1<<20, 1<<14)
	s, _ := NewUint64s(h, 5000)
	for i := 0; i < s.Len(); i++ {
		s.Set(i, uint64(i))
	}
	var sum uint64
	count := 0
	s.Range(func(i int, v uint64) bool {
		sum += v
		count++
		return true
	})
	if count != 5000 || sum != 5000*4999/2 {
		t.Fatalf("Range visited %d, sum %d", count, sum)
	}
	// Early stop.
	count = 0
	s.Range(func(i int, v uint64) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestRangeIsCheaperThanAt(t *testing.T) {
	h := newTestHeap(t, 1<<22, 1<<22) // all local: isolate guard cost
	s, _ := NewUint64s(h, 1<<14)
	s.Fill(1)

	h.ResetStats()
	var sum uint64
	for i := 0; i < s.Len(); i++ {
		sum += s.At(i)
	}
	atSecs := h.Stats().SimulatedSeconds

	h.ResetStats()
	s.Range(func(i int, v uint64) bool { sum += v; return true })
	rangeSecs := h.Stats().SimulatedSeconds
	if rangeSecs >= atSecs {
		t.Fatalf("Range (%v) not cheaper than At loop (%v)", rangeSecs, atSecs)
	}
	_ = sum
}

func TestFloat64s(t *testing.T) {
	h := newTestHeap(t, 1<<20, 1<<13)
	s, err := NewFloat64s(h, 1000)
	if err != nil {
		t.Fatalf("NewFloat64s: %v", err)
	}
	for i := 0; i < s.Len(); i++ {
		s.Set(i, float64(i)*0.5)
	}
	var sum float64
	s.Range(func(i int, v float64) bool { sum += v; return true })
	if want := float64(1000*999/2) * 0.5; sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}
	if s.At(999) != 499.5 {
		t.Fatalf("At(999) = %v", s.At(999))
	}
}

func TestBytes(t *testing.T) {
	h := newTestHeap(t, 1<<20, 1<<13)
	b, err := NewBytes(h, 10000)
	if err != nil {
		t.Fatalf("NewBytes: %v", err)
	}
	payload := []byte("the quick brown fox jumps over the far heap")
	b.WriteAt(4097, payload) // spans objects
	got := make([]byte, len(payload))
	b.ReadAt(4097, got)
	if !bytes.Equal(got, payload) {
		t.Fatalf("ReadAt = %q", got)
	}
}

func TestBoundsPanics(t *testing.T) {
	h := newTestHeap(t, 1<<20, 1<<13)
	s, _ := NewUint64s(h, 10)
	for _, fn := range []func(){
		func() { s.At(10) },
		func() { s.At(-1) },
		func() { s.Set(10, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("out-of-range access did not panic")
				}
			}()
			fn()
		}()
	}
	// A huge offset makes off+len overflow: it must still be farmem's
	// bounds panic, not an access that reaches the runtime.
	b, _ := NewBytes(h, 10)
	const maxInt = int(^uint(0) >> 1)
	for _, off := range []int{8, 11, maxInt - 3, maxInt} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.HasPrefix(msg, "farmem: range") {
					t.Errorf("ReadAt(%d, 4 bytes) panicked with %q, want farmem's bounds panic", off, msg)
				}
			}()
			b.ReadAt(off, make([]byte, 4))
		}()
	}
}

func TestNegativeLength(t *testing.T) {
	h := newTestHeap(t, 1<<20, 1<<13)
	if _, err := NewUint64s(h, -1); err == nil {
		t.Fatalf("negative length accepted")
	}
}

func TestInUseAccounting(t *testing.T) {
	h := newTestHeap(t, 1<<20, 1<<13)
	if h.InUse() != 0 {
		t.Fatalf("fresh heap InUse = %d", h.InUse())
	}
	NewUint64s(h, 100)
	if h.InUse() != 800 {
		t.Fatalf("InUse = %d, want 800", h.InUse())
	}
}

func TestRealRemoteNode(t *testing.T) {
	srv := fabric.NewServer(remote.NewStore())
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	h, err := New(Config{
		HeapBytes: 1 << 20, LocalBytes: 1 << 13, // 8 KB local: two objects
		RemoteConfig: fabric.RemoteConfig{RemoteAddr: addr},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	s, _ := NewUint64s(h, 2048) // 16 KB: must round-trip through TCP
	cur := 0
	for i := 0; i < s.Len(); i++ {
		s.Set(i, uint64(i)+5)
		cur++
	}
	for _, i := range []int{0, 511, 512, 2047} {
		if got := s.At(i); got != uint64(i)+5 {
			t.Fatalf("At(%d) = %d over TCP", i, got)
		}
	}
	_ = cur
}

func TestHeapResizeAndPressure(t *testing.T) {
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 1 << 15})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s, err := NewUint64s(h, 1<<13) // 64 KB, 2x the local budget
	if err != nil {
		t.Fatalf("NewUint64s: %v", err)
	}
	for i := 0; i < s.Len(); i++ {
		s.Set(i, uint64(i))
	}
	pr := h.Pressure()
	if pr.LocalBytes != 1<<15 || pr.MaxLocalBytes != 1<<15 {
		t.Fatalf("pressure budgets = %d/%d", pr.LocalBytes, pr.MaxLocalBytes)
	}
	if pr.ResidentBytes == 0 || pr.ResidentBytes > pr.LocalBytes {
		t.Fatalf("resident %d outside (0, %d]", pr.ResidentBytes, pr.LocalBytes)
	}

	// Shrink to a quarter, verify the budget holds and no data was lost.
	if err := h.Resize(1 << 13); err != nil {
		t.Fatalf("Resize: %v", err)
	}
	for i := 0; i < s.Len(); i += 511 {
		if got := s.At(i); got != uint64(i) {
			t.Fatalf("At(%d) = %d after shrink", i, got)
		}
	}
	pr = h.Pressure()
	if pr.LocalBytes != 1<<13 || pr.MaxLocalBytes != 1<<15 {
		t.Fatalf("post-shrink budgets = %d/%d", pr.LocalBytes, pr.MaxLocalBytes)
	}
	if pr.ResidentBytes > pr.LocalBytes {
		t.Fatalf("resident %d exceeds shrunk budget %d", pr.ResidentBytes, pr.LocalBytes)
	}
	if pr.Resizes != 1 {
		t.Fatalf("resizes = %d", pr.Resizes)
	}

	// Grow back to the starting budget; beyond it is an error.
	if err := h.Resize(1 << 15); err != nil {
		t.Fatalf("grow: %v", err)
	}
	if err := h.Resize(1 << 16); err == nil {
		t.Fatalf("grow past the starting budget accepted")
	}
	// The slots the shrink retired are back in use: eight objects, one
	// touch each, are all resident at once, and still hold their data.
	for i := 0; i < 8*512; i += 512 {
		if got := s.At(i); got != uint64(i) {
			t.Fatalf("At(%d) = %d after regrow", i, got)
		}
	}
	if pr = h.Pressure(); pr.ResidentBytes != 1<<15 {
		t.Fatalf("resident %d after regrow, want the full %d", pr.ResidentBytes, 1<<15)
	}

	// A sweep over 8x the shrunk budget with a tiny thrash window
	// disabled is still measured: the refault counter and thrash ratio
	// respond to the squeeze.
	if err := h.Resize(1 << 13); err != nil {
		t.Fatalf("re-shrink: %v", err)
	}
	for pass := 0; pass < 4; pass++ {
		for i := 0; i < s.Len(); i += 512 { // one touch per 4K object
			_ = s.At(i)
		}
	}
	pr = h.Pressure()
	if pr.Refaults == 0 {
		t.Fatalf("cyclic sweep at 8x overcommit produced no refaults")
	}
	if pr.ThrashRatio <= 0 {
		t.Fatalf("thrash ratio = %v under cyclic sweep", pr.ThrashRatio)
	}
}

// stallLink is a transport that, once armed, burns delay cycles of the
// heap's own clock before each operation's deadline check.
type stallLink struct {
	*fabric.SimLink            // storage only; charges a private env
	clk             *sim.Clock // the heap's clock, set once the heap exists
	delay           uint64
}

func (s *stallLink) stalled(dl fabric.Deadline) error {
	if s.clk != nil {
		s.clk.Advance(s.delay)
	}
	if dl.Expired() {
		return fabric.ErrDeadlineExceeded
	}
	return nil
}

func (s *stallLink) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	if err := s.stalled(dl); err != nil {
		return false, err
	}
	return s.SimLink.TryFetchUntil(key, dst, fabric.Deadline{})
}

func (s *stallLink) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	if err := s.stalled(dl); err != nil {
		return err
	}
	return s.SimLink.TryPushUntil(key, src, fabric.Deadline{})
}

// TestOpDeadlineReachesThePool: Config.OpDeadline set through the public
// API must stamp every remote operation — a stalling transport then misses
// deadlines, and a streak of misses degrades the heap's pool.
func TestOpDeadlineReachesThePool(t *testing.T) {
	const budget = 1 << 20
	link := &stallLink{SimLink: fabric.NewSimLink(sim.NewEnv(), fabric.BackendTCP), delay: 2 * budget}
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 1 << 13,
		RemoteConfig: fabric.RemoteConfig{Transport: link, OpDeadline: budget}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	s, _ := NewUint64s(h, 2048) // 16 KB over 8 KB local: the head is evicted
	for i := 0; i < s.Len(); i++ {
		s.Set(i, uint64(i))
	}
	link.clk = &h.env.Clock
	for i := 0; i < 8; i++ { // the default breaker threshold
		func() {
			defer func() { recover() }() // a guard cannot return the fetch error
			s.At(0)
		}()
	}
	if got := h.Snapshot().Counters.DeadlineMisses; got == 0 {
		t.Fatalf("OpDeadline was dropped on the way to the pool: no deadline misses")
	}
	if !h.rt.Pool().Far().Degraded() {
		t.Fatalf("pool not degraded after a streak of deadline misses")
	}
}

// TestBreakerRecoversWithEveryResidentDirty: a pool the deadline breaker
// degraded while every resident was dirty and the reserve floor was spent
// serves again once the link heals. Its misses fetch nothing until a
// write-back frees a slot, so a dirty write-back must go through as the
// breaker's probe.
func TestBreakerRecoversWithEveryResidentDirty(t *testing.T) {
	const budget = 1 << 20
	link := &stallLink{SimLink: fabric.NewSimLink(sim.NewEnv(), fabric.BackendTCP), delay: 2 * budget}
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 1 << 13, ObjectBytes: 1 << 10,
		RemoteConfig: fabric.RemoteConfig{Transport: link, OpDeadline: budget}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	s, _ := NewUint64s(h, 2048) // 16 objects over 8 slots: the head is evicted, the tail dirty
	for i := 0; i < s.Len(); i++ {
		s.Set(i, uint64(i))
	}
	fresh, _ := NewUint64s(h, 2048) // never written: a write materializes zeros, no fetch
	ok := func(access func()) (ok bool) {
		defer func() { ok = recover() == nil }() // a guard cannot return the fetch error
		access()
		return
	}
	link.clk = &h.env.Clock
	ok(func() { s.At(1) }) // the lap's write-backs miss their deadlines
	if !h.rt.Pool().Far().Degraded() {
		t.Fatalf("pool not degraded after a lap of deadline-missing write-backs")
	}
	for i := 0; i < fresh.Len(); i += 128 { // one write an object: spend the reserve floor
		ok(func() { fresh.Set(i, 1) })
	}
	if p := h.rt.Pool(); p.ReserveFree() != 0 {
		t.Fatalf("%d reserve slots left: the pool is not in the state under test", p.ReserveFree())
	}
	link.clk = nil // the link heals
	for i := 0; i < 64; i++ {
		if ok(func() { s.At(1) }) {
			if got := s.At(1); got != 1 || h.rt.Pool().Far().Degraded() {
				t.Fatalf("s[1] = %d, degraded %v after the link healed", got, h.rt.Pool().Far().Degraded())
			}
			return
		}
	}
	t.Fatalf("64 reads after the link healed all failed: the pool stays degraded")
}

// TestCloseReturnsTierLeases: Close must run the pool's Close, which hands
// the compressed tier's buffers back.
func TestCloseReturnsTierLeases(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	start := bufpool.Outstanding()
	h, err := New(Config{HeapBytes: 1 << 20, LocalBytes: 1 << 13, CompressedBytes: 1 << 16})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	s, _ := NewUint64s(h, 2048)
	for i := 0; i < s.Len(); i++ {
		s.Set(i, uint64(i))
	}
	if bufpool.Outstanding() == start {
		t.Fatalf("no eviction parked a copy in the tier; the test exercises nothing")
	}
	h.Close()
	if got := bufpool.Outstanding(); got != start {
		t.Fatalf("%d tier buffer leases still out after Close", got-start)
	}
}
