package kv

import (
	"testing"

	"trackfm/internal/interp"
	"trackfm/internal/sim"
)

func backend(t *testing.T, sys interp.System, objSize int, heap, local uint64) interp.Backend {
	t.Helper()
	be, err := interp.NewBackend(sys, sim.NewEnv(), objSize, heap, local)
	if err != nil {
		t.Fatalf("NewBackend(%v): %v", sys, err)
	}
	return be
}

func localBackend(t *testing.T) interp.Backend { return backend(t, interp.Local, 0, 0, 0) }

func TestStoreSetGet(t *testing.T) {
	acc := localBackend(t)
	st, err := NewStore(acc, 100)
	if err != nil {
		t.Fatalf("NewStore: %v", err)
	}
	if err := st.Set(42, 16, 25); err != nil {
		t.Fatalf("Set: %v", err)
	}
	buf := make([]byte, 64)
	n, ok := st.Get(42, buf)
	if !ok || n != 25 {
		t.Fatalf("Get = (%d, %v), want (25, true)", n, ok)
	}
	// Payload is deterministic: byte i = key + i.
	for i := 0; i < n; i++ {
		if buf[i] != byte(42+uint64(i)) {
			t.Fatalf("payload byte %d = %d", i, buf[i])
		}
	}
	if _, ok := st.Get(999, buf); ok {
		t.Fatalf("absent key found")
	}
	if st.Items() != 1 {
		t.Fatalf("Items = %d", st.Items())
	}
}

func TestStoreOverwrite(t *testing.T) {
	acc := localBackend(t)
	st, _ := NewStore(acc, 10)
	st.Set(1, 16, 2)
	st.Set(1, 16, 100)
	buf := make([]byte, 128)
	n, ok := st.Get(1, buf)
	if !ok || n != 100 {
		t.Fatalf("after overwrite Get = (%d, %v)", n, ok)
	}
	if st.Items() != 1 {
		t.Fatalf("overwrite double-counted: Items = %d", st.Items())
	}
}

func TestStoreOversizedItemRejected(t *testing.T) {
	acc := localBackend(t)
	st, _ := NewStore(acc, 10)
	if err := st.Set(1, 16, 4000); err == nil {
		t.Fatalf("item above largest slab class accepted")
	}
}

func TestSlabBatching(t *testing.T) {
	// Two same-class items must land in the same slab chunk,
	// consecutively spaced by the class size.
	acc := localBackend(t)
	st, _ := NewStore(acc, 10)
	a, err := st.allocItem(40) // class 64
	if err != nil {
		t.Fatalf("allocItem: %v", err)
	}
	b, _ := st.allocItem(50) // class 64 again
	if b != a+64 {
		t.Fatalf("slab items not batched: %d then %d", a, b)
	}
	c, _ := st.allocItem(600) // class 1024
	if c == a+128 {
		t.Fatalf("different class allocated from same chunk")
	}
}

func TestRunAgreesAcrossBackends(t *testing.T) {
	cfg := Config{Keys: 400, Gets: 2000, Skew: 1.05, Seed: 9}
	local, err := Run(localBackend(t), cfg)
	if err != nil {
		t.Fatalf("local: %v", err)
	}
	if local.Misses != 0 {
		t.Fatalf("local misses = %d", local.Misses)
	}
	tfm, err := Run(backend(t, interp.TrackFM, 64, 1<<22, 1<<15), cfg)
	if err != nil {
		t.Fatalf("trackfm: %v", err)
	}
	if tfm.CheckSum != local.CheckSum {
		t.Fatalf("trackfm checksum %d != local %d", tfm.CheckSum, local.CheckSum)
	}
	fs, err := Run(backend(t, interp.Fastswap, 0, 1<<22, 1<<16), cfg)
	if err != nil {
		t.Fatalf("fastswap: %v", err)
	}
	if fs.CheckSum != local.CheckSum {
		t.Fatalf("fastswap checksum %d != local %d", fs.CheckSum, local.CheckSum)
	}
}

func TestTrackFMTransfersLessThanFastswap(t *testing.T) {
	// Fig. 16c shape: page-granular Fastswap moves far more data than
	// object-granular TrackFM for small KV items under pressure.
	cfg := Config{Keys: 3000, Gets: 6000, Skew: 1.01, Seed: 5}
	itemBytes := EstimatedItemBytes(5, 4096)
	ws := uint64(cfg.Keys) * (itemBytes + 16)
	heap := uint64(1 << 26)
	budget := ws / 12 // heavy pressure

	tfm := backend(t, interp.TrackFM, 64, heap, budget)
	if _, err := Run(tfm, cfg); err != nil {
		t.Fatalf("trackfm: %v", err)
	}
	fs := backend(t, interp.Fastswap, 0, heap, budget)
	if _, err := Run(fs, cfg); err != nil {
		t.Fatalf("fastswap: %v", err)
	}
	tb := tfm.Env().Counters.BytesFetched
	fb := fs.Env().Counters.BytesFetched
	if tb == 0 || fb == 0 {
		t.Fatalf("no pressure: trackfm=%d fastswap=%d", tb, fb)
	}
	if fb < tb*3 {
		t.Fatalf("amplification gap too small: fastswap=%d trackfm=%d", fb, tb)
	}
}

func TestHigherSkewHelpsFastswap(t *testing.T) {
	// Fig. 16a shape: as skew rises, temporal locality amortizes page
	// faults and Fastswap closes the gap (throughput rises).
	run := func(skew float64) uint64 {
		cfg := Config{Keys: 3000, Gets: 6000, Skew: skew, Seed: 5}
		fs := backend(t, interp.Fastswap, 0, 1<<26, 1<<18)
		if _, err := Run(fs, cfg); err != nil {
			t.Fatalf("fastswap: %v", err)
		}
		return fs.Env().Clock.Cycles()
	}
	low := run(1.01)
	high := run(1.30)
	if high >= low {
		t.Fatalf("higher skew did not speed Fastswap up: 1.01 -> %d cycles, 1.30 -> %d", low, high)
	}
}

func TestEstimatedItemBytes(t *testing.T) {
	got := EstimatedItemBytes(1, 10_000)
	// Most items are 32B header + small value -> class 64; mean should
	// sit between 64 and 256.
	if got < 64 || got > 256 {
		t.Fatalf("EstimatedItemBytes = %d", got)
	}
}

func TestRunValidation(t *testing.T) {
	acc := localBackend(t)
	if _, err := Run(acc, Config{Keys: 0, Gets: 10}); err == nil {
		t.Fatalf("zero keys accepted")
	}
	if _, err := NewStore(acc, 0); err == nil {
		t.Fatalf("zero capacity accepted")
	}
}
