package fastswap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/far"
	"trackfm/internal/modeltest"
)

// The swap's adapter to the model harness (internal/modeltest): seeded op
// traces run on a Swap and on the flat heap side by side. Every read must
// match the heap; a failed op must have accessed exactly the pages before
// the one it faulted on (Step); after every op the swap's bookkeeping must
// hold (Check); and at quiesce the far copies and a read-back of the heap
// must equal the heap.

// Every config's swap: 32 pages over 4 frames, two wire attempts a far
// engine call, and 2000 ops a trace, under each of the harness's fault
// schedules. Their 8-op outages outlast the write-backs of all four frames
// at two attempts each, so a reclaim can find every frame stalled ("no
// reclaimable frame").
const modelFrames, modelHeap = 4, 32 * pageSize

// swapModel's ops: the first four are accesses, a load or store one byte
// to two pages long, so it crosses page boundaries.
var swapModel = modeltest.Model{
	Pkg:     "internal/fastswap",
	Ops:     []string{"load", "store", "load-u64", "store-u64", "evacuate-all", "reset-stats"},
	Weights: []int{20, 20, 10, 10, 2, 2},
	Draw: func(src modeltest.Source, o *modeltest.Op) {
		o.Val = src.Uint64()
		if o.N = 8; o.Kind == "load" || o.Kind == "store" {
			o.N = 1 + src.Intn(2*pageSize)
		} else if o.Kind != "load-u64" && o.Kind != "store-u64" {
			o.N = 0
		}
		o.Off = src.Intn(modelHeap - o.N + 1)
	},
	Len: 2000, Heap: modelHeap, Backend: fabric.BackendRDMA, Retries: 2,
}

// The two ends a failed op may panic with: a swap-in whose fetch failed for
// good (the SIGBUS analogue), which names its page, and a reclaim that found
// every frame's write-back stalled.
const sigbus, noFrame = "unrecoverable remote fault on page ", "no reclaimable frame"

type model struct {
	r *modeltest.Rig
	s *Swap
}

// peek reads the swap's bytes [off, off+n) where they live, faulting nothing
// in: a mapped page's frame, any other page's far copy, which the SimLink
// reads as zeros if none was pushed.
func (m *model) peek(off, n int) (out []byte, _ error) {
	for pg := off / pageSize; pg*pageSize < off+n; pg++ {
		page := make([]byte, pageSize)
		if m.s.states[pg] == PageMapped {
			copy(page, m.s.frameBuf(uint64(m.s.frame[pg])*pageSize))
		} else {
			_, _ = m.r.Far.TryFetchUntil(uint64(pg), page, fabric.Deadline{}) // a SimLink without a deadline cannot fail
		}
		out = append(out, page...)
	}
	return out[off%pageSize:][:n], nil
}

// Step applies o to the swap and, as far as it got, to the heap, and checks
// what the swap read (Rig.Access) and what a store left. An access may fail only with one of the
// swap's two ends, and like a memcpy that faults partway, it must have
// accessed exactly the pages before the one it faulted on: a store wrote
// those and nothing from there on, a load filled the caller's buffer that
// far and left the rest as it was.
func (m *model) Step(o modeltest.Op) error {
	r, c0, pushes := m.r, m.s.env.Counters.Snapshot(), m.s.env.Lat().RemotePush.Snapshot().Count()
	failure, moved, err, off := "", 0, error(nil), uint64(o.Off)
	switch write := strings.HasPrefix(o.Kind, "store"); o.Kind {
	case "evacuate-all":
		m.s.EvacuateAll()
	case "reset-stats":
		m.r.ResetStats()
		return nil
	default:
		buf := bytes.Repeat([]byte{0xEE}, o.N)
		for i := 0; write && i < o.N; i++ {
			buf[i] = byte(o.Val>>(i%8*8)) ^ byte(i>>3)
		}
		failure, moved, err = r.Access(o.Off, pageSize, buf, write, o.Kind == "load-u64", []string{sigbus, noFrame}, m.peek, func() {
			switch o.Kind {
			case "load":
				m.s.Load(off, buf)
			case "store":
				m.s.Store(off, buf)
			case "load-u64":
				binary.LittleEndian.PutUint64(buf, m.s.LoadU64(off))
			case "store-u64":
				m.s.StoreU64(off, binary.LittleEndian.Uint64(buf))
			}
		})
		if write && failure == "" {
			got, _ := m.peek(o.Off, o.N) // what the store left where it lives
			err = errors.Join(err, r.Differ(o.Off, got, r.Mem[o.Off:o.Off+o.N]))
		}
	}
	c, pushes := m.s.env.Counters.Snapshot(), m.s.env.Lat().RemotePush.Snapshot().Count()-pushes
	written := pushes - (c.EvictionStalls - c0.EvictionStalls) // dirty evictions that completed
	r.Note("minor fault", c.MinorFaults > c0.MinorFaults, true)
	r.Note("major fault", c.MajorFaults > c0.MajorFaults, true)
	r.Note("clean eviction", c.PageEvictions-c0.PageEvictions > written, true)
	r.Note("dirty eviction", written > 0, true)
	r.Note("cross-page access", failure == "" && o.Off%pageSize+o.N > pageSize, true)
	r.Note("eviction stall", c.EvictionStalls > c0.EvictionStalls, r.Faulty())
	r.Note("failed major fault", strings.Contains(failure, sigbus), r.Faulty())
	r.Note("store failed partway", failure != "" && strings.HasPrefix(o.Kind, "store") && moved > 0, r.Faulty())
	r.Note("no reclaimable frame", strings.Contains(failure, noFrame), r.Faulty())
	return err
}

// Check holds the swap's bookkeeping to what it summarizes, between ops:
// every frame is owned by the one mapped page mapped to it, or free, exactly
// once; only mapped pages are dirty or referenced; and the resident bytes
// fit the budget.
func (m *model) Check() error {
	s, seen := m.s, make([]int, modelFrames)
	for _, f := range s.freeFrames {
		if seen[f]++; s.frameOwner[f] != noPage {
			return fmt.Errorf("free frame %d is owned by page %d", f, s.frameOwner[f])
		}
	}
	for pg, st := range s.states {
		switch {
		case st == PageMapped && s.frameOwner[s.frame[pg]] != uint32(pg):
			return fmt.Errorf("page %d is mapped to frame %d, which is owned by page %d", pg, s.frame[pg], s.frameOwner[s.frame[pg]])
		case st == PageMapped:
			seen[s.frame[pg]]++
		case s.dirty[pg] || s.refd[pg]:
			return fmt.Errorf("page %d is not mapped, but dirty %t and referenced %t", pg, s.dirty[pg], s.refd[pg])
		}
	}
	for f, n := range seen {
		if n != 1 {
			return fmt.Errorf("frame %d is owned or free %d times", f, n)
		}
	}
	if s.ResidentBytes() > modelFrames*pageSize {
		return fmt.Errorf("%d bytes resident over a budget of %d", s.ResidentBytes(), modelFrames*pageSize)
	}
	return nil
}

// Quiesce heals the link — the swap's far engine is rebuilt over the bare
// SimLink — and drains the swap with EvacuateAll, which must leave nothing
// resident; every page's far copy, and a read-back of the heap, must then
// equal the heap.
func (m *model) Quiesce() (err error) {
	m.s.far, err = far.New(far.Config{Env: m.r.Env, RemoteConfig: fabric.RemoteConfig{Transport: m.r.Far},
		Backend: fabric.BackendRDMA, UnitSize: pageSize, DegradeAfter: -1})
	if m.s.EvacuateAll(); err == nil && m.s.ResidentBytes() != 0 {
		err = fmt.Errorf("%d bytes resident after EvacuateAll over a healed link", m.s.ResidentBytes())
	}
	buf := make([]byte, modelHeap)
	m.s.Load(0, buf)
	return errors.Join(err, m.Check(), m.r.FarCopies(pageSize), m.r.Differ(0, buf, m.r.Mem))
}

func newModel(r *modeltest.Rig) (modeltest.Runtime, error) {
	s, err := New(Config{Env: r.Env, HeapSize: modelHeap, LocalBudget: modelFrames * pageSize, RemoteConfig: r.Remote()})
	return &model{r: r, s: s}, err
}

// TestModel runs the harness's seeded traces under each fault schedule.
func TestModel(t *testing.T) {
	for name, sched := range modeltest.Schedules {
		t.Run(name, func(t *testing.T) { swapModel.Test(t, sched, newModel, nil) })
	}
}

// FuzzModel runs a trace drawn from the fuzzer's bytes under the schedule
// its first argument picks.
func FuzzModel(f *testing.F) {
	f.Add(uint8(0), []byte("a swap over four frames: ascii text draws a trace as well as anything"))
	f.Add(uint8(1), bytes.Repeat([]byte{7, 200, 3, 90, 17, 250, 1, 64, 33, 128, 5, 77, 12}, 40))
	f.Fuzz(func(t *testing.T, c uint8, script []byte) {
		names := []string{"fault-free", "faults", "faults-deadline"}
		swapModel.Fuzz(t, modeltest.Schedules[names[int(c)%len(names)]], newModel, script)
	})
}
