package interp

import (
	"bytes"
	"testing"

	"trackfm/internal/sim"
)

// TestBackendContract holds every System's backend, built the one way
// (NewBackend), to what any workload relies on: heap addresses are never
// 0, a scalar and a byte range spanning objects and pages read back what
// was written, and a cursor reads what scalar loads read. Local charges a
// byte range one load/store per 64 bytes; TrackFM interposes with guards,
// Fastswap with faults.
func TestBackendContract(t *testing.T) {
	for _, sys := range []System{Local, TrackFM, Fastswap, AIFM} {
		t.Run(sys.String(), func(t *testing.T) {
			env := sim.NewEnv()
			be, err := NewBackend(sys, env, 256, 1<<20, 1<<14)
			if err != nil {
				t.Fatalf("NewBackend: %v", err)
			}
			malloc := func(n uint64) uint64 {
				a := be.Malloc(n)
				if a == 0 {
					t.Fatalf("Malloc(%d) returned address 0", n)
				}
				return a
			}
			base := malloc(3 * 4096)

			be.Store(base+8, 0xABCD, true)
			if got := be.Load(base+8, true); got != 0xABCD {
				t.Fatalf("Load = %#x, want 0xabcd", got)
			}

			// 4000..5200 crosses the first page boundary and five 256 B objects.
			payload := bytes.Repeat([]byte{7, 1, 3}, 400)
			be.StoreBytes(base+4000, payload)
			got := make([]byte, len(payload))
			be.LoadBytes(base+4000, got)
			if !bytes.Equal(got, payload) {
				t.Fatalf("byte-range round trip lost data")
			}

			arr := malloc(64 * 8)
			for i := uint64(0); i < 64; i++ {
				be.Store(arr+i*8, i*3, true)
			}
			cur := be.OpenCursor(arr, 8, true)
			for i := uint64(0); i < 64; i++ {
				addr := arr + i*8
				if c, s := cur.Load(addr), be.Load(addr, true); c != i*3 || s != i*3 {
					t.Fatalf("element %d: cursor %d, scalar %d, want %d", i, c, s, i*3)
				}
			}
			cur.Close()

			switch sys {
			case Local:
				for _, n := range []int{1, 64, 65, 200} {
					before := env.Clock.Cycles()
					be.LoadBytes(base, make([]byte, n))
					be.StoreBytes(base, make([]byte, n))
					want := 2 * uint64((n+63)/64) * env.Costs.LocalLoadStore
					if charged := env.Clock.Cycles() - before; charged != want {
						t.Errorf("%d-byte load+store charged %d cycles, want %d", n, charged, want)
					}
				}
			case TrackFM:
				if env.Counters.Guards() == 0 {
					t.Errorf("no guards charged")
				}
			case Fastswap:
				if env.Counters.Faults() == 0 {
					t.Errorf("no faults charged")
				}
			}
		})
	}
}
