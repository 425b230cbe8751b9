package modeltest_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"trackfm/internal/core"
	"trackfm/internal/fabric"
	"trackfm/internal/fastswap"
	"trackfm/internal/modeltest"
	"trackfm/internal/sim"
)

// Both runtimes over the same 128 KiB heap and 16 KiB of local memory: the
// object runtime in 256-byte objects, the swap in 4 KiB pages.
const agreeHeap, agreeLocal = 128 << 10, 16 << 10

// agreeModel's ops are the accesses both runtimes serve at a heap offset:
// a load or store one byte to two pages long, or a word.
var agreeModel = modeltest.Model{
	Pkg:     "internal/modeltest",
	Ops:     []string{"load", "store", "load-u64", "store-u64"},
	Weights: []int{2, 2, 1, 1},
	Draw: func(src modeltest.Source, o *modeltest.Op) {
		if o.Val, o.N = src.Uint64(), 8; o.Kind == "load" || o.Kind == "store" {
			o.N = 1 + src.Intn(8<<10)
		}
		o.Off = src.Intn(agreeHeap - o.N + 1)
	},
	Len: 2000, Heap: agreeHeap, Backend: fabric.BackendTCP, Retries: 2,
}

// pair is a core.Runtime holding the whole heap as one allocation at base,
// and a fastswap.Swap.
type pair struct {
	r    *modeltest.Rig
	rt   *core.Runtime
	base core.Ptr
	s    *fastswap.Swap
}

func newPair(r *modeltest.Rig) (modeltest.Runtime, error) {
	rt, err := core.NewRuntime(core.Config{Env: r.Env, ObjectSize: 256, HeapSize: agreeHeap, LocalBudget: agreeLocal, RemoteConfig: r.Remote()})
	s, serr := fastswap.New(fastswap.Config{Env: sim.NewEnv(), HeapSize: agreeHeap, LocalBudget: agreeLocal})
	if err = errors.Join(err, serr); err != nil {
		return nil, err
	}
	q := &pair{r: r, rt: rt, base: rt.MustMalloc(agreeHeap), s: s}
	if off := s.MustMalloc(agreeHeap); q.base.HeapOffset() != 0 || off != 0 {
		return nil, fmt.Errorf("the whole heap allocated at %#x and %#x", q.base.HeapOffset(), off)
	}
	return q, nil
}

// Step runs o on both runtimes: a store lands in the heap, and a read must
// be the same on both and the heap's.
func (q *pair) Step(o modeltest.Op) error {
	off, a, b, want := uint64(o.Off), make([]byte, o.N), make([]byte, o.N), q.r.Mem[o.Off:o.Off+o.N]
	switch o.Kind {
	case "load":
		q.rt.Load(q.base.Add(off), a)
		q.s.Load(off, b)
	case "load-u64":
		binary.LittleEndian.PutUint64(a, q.rt.LoadU64(q.base.Add(off)))
		binary.LittleEndian.PutUint64(b, q.s.LoadU64(off))
	default:
		for i := range want {
			want[i] = byte(o.Val>>(i%8*8)) ^ byte(i>>3)
		}
		if o.Kind == "store-u64" {
			q.rt.StoreU64(q.base.Add(off), binary.LittleEndian.Uint64(want))
			q.s.StoreU64(off, binary.LittleEndian.Uint64(want))
		} else {
			q.rt.Store(q.base.Add(off), want)
			q.s.Store(off, want)
		}
		return nil
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("the runtimes read differently: %v", q.r.Differ(o.Off, b, a))
	}
	return q.r.Differ(o.Off, a, want)
}

func (q *pair) Check() error { return nil }

// Quiesce reads the whole heap back from both.
func (q *pair) Quiesce() error {
	a, b := make([]byte, agreeHeap), make([]byte, agreeHeap)
	q.rt.Load(q.base, a)
	q.s.Load(0, b)
	return errors.Join(q.r.Differ(0, a, q.r.Mem), q.r.Differ(0, b, q.r.Mem))
}

// TestRuntimesAgree is the byte-level form of the premise every figure
// rests on, that both systems run the same program: TrackFM's runtime and
// the swap baseline, fault-free, read the same bytes at every step of a
// seeded trace of loads and stores, and the flat heap's. Under faults the
// two fail at different ops, so each is held to its own model instead.
func TestRuntimesAgree(t *testing.T) {
	agreeModel.Test(t, modeltest.Schedules["fault-free"], newPair, nil)
}
