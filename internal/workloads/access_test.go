package workloads

import (
	"bytes"
	"encoding/binary"
	"testing"

	"trackfm/internal/core"
	"trackfm/internal/fastswap"
	"trackfm/internal/sim"
)

func testAccessors(t *testing.T) map[string]Accessor {
	t.Helper()
	rt, err := core.NewRuntime(core.Config{
		Env: sim.NewEnv(), ObjectSize: 256, HeapSize: 1 << 20, LocalBudget: 1 << 13,
	})
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	sw, err := fastswap.New(fastswap.Config{
		Env: sim.NewEnv(), HeapSize: 1 << 20, LocalBudget: 1 << 14,
	})
	if err != nil {
		t.Fatalf("fastswap.New: %v", err)
	}
	return map[string]Accessor{
		"trackfm":  &TrackFMAccessor{RT: rt},
		"fastswap": &FastswapAccessor{Swap: sw},
		"local":    NewLocalAccessor(sim.NewEnv()),
	}
}

func TestAccessorContract(t *testing.T) {
	for name, acc := range testAccessors(t) {
		name, acc := name, acc
		t.Run(name, func(t *testing.T) {
			if acc.Env() == nil {
				t.Fatalf("nil Env")
			}
			base := acc.Malloc(1 << 12)
			// U64 round trip.
			acc.StoreU64(base+8, 0xABCD)
			if got := acc.LoadU64(base + 8); got != 0xABCD {
				t.Fatalf("LoadU64 = %#x", got)
			}
			// Bulk round trip spanning objects/pages.
			payload := bytes.Repeat([]byte{7, 1}, 600)
			acc.Store(base+100, payload)
			got := make([]byte, len(payload))
			acc.Load(base+100, got)
			if !bytes.Equal(got, payload) {
				t.Fatalf("bulk round trip failed")
			}
			// Sequential reader agrees with element loads.
			arr := acc.Malloc(64 * 8)
			for i := uint64(0); i < 64; i++ {
				acc.StoreU64(arr+i*8, i*3)
			}
			r := acc.SeqReader(arr, 8)
			var buf [8]byte
			for i := uint64(0); i < 64; i++ {
				r.Next(i, buf[:])
				v := binary.LittleEndian.Uint64(buf[:])
				if v != i*3 {
					t.Fatalf("SeqReader[%d] = %d, want %d", i, v, i*3)
				}
			}
			r.Close()
			// Reset must not lose data.
			acc.Reset()
			if got := acc.LoadU64(base + 8); got != 0xABCD {
				t.Fatalf("data lost across Reset: %#x", got)
			}
		})
	}
}

func TestTrackFMAccessorChargesGuards(t *testing.T) {
	acc := testAccessors(t)["trackfm"].(*TrackFMAccessor)
	base := acc.Malloc(64)
	acc.StoreU64(base, 1)
	if acc.Env().Counters.Guards() == 0 {
		t.Fatalf("no guards charged")
	}
}

func TestFastswapAccessorChargesFaults(t *testing.T) {
	acc := testAccessors(t)["fastswap"].(*FastswapAccessor)
	base := acc.Malloc(1 << 16)
	for off := uint64(0); off < 1<<16; off += 4096 {
		acc.StoreU64(base+off, 1)
	}
	if acc.Env().Counters.Faults() == 0 {
		t.Fatalf("no faults charged")
	}
}

func TestLocalAccessorReservesNil(t *testing.T) {
	acc := NewLocalAccessor(sim.NewEnv())
	if a := acc.Malloc(8); a == 0 {
		t.Fatalf("first allocation landed at address 0")
	}
}

func TestLocalAccessorChargesPerLine(t *testing.T) {
	env := sim.NewEnv()
	acc := NewLocalAccessor(env)
	base := acc.Malloc(256)
	before := env.Clock.Cycles()
	acc.Load(base, make([]byte, 256)) // 4 cache lines
	if got := env.Clock.Cycles() - before; got != 4*env.Costs.LocalLoadStore {
		t.Fatalf("256B load charged %d cycles", got)
	}
}
