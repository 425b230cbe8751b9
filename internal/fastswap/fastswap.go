// Package fastswap implements the kernel-based far-memory baseline the
// paper compares against: Fastswap (Amaro et al., EuroSys '20), a modified
// Linux swap subsystem that pages to a remote node over one-sided RDMA.
//
// The defining properties reproduced here:
//
//   - the architected 4 KB page granularity (the source of I/O
//     amplification for fine-grained workloads, §4.4),
//   - hardware page faults as the only interposition mechanism — accesses
//     to mapped pages are free of software overhead, so temporal locality
//     amortizes fault costs (§5 "Lessons"),
//   - fault costs from Table 2: 1.3 K cycles for a minor fault, which
//     here is only the zero-fill first touch of a page, and ~34 K plus
//     the transfer for a major fault, which every swap-in is (there is
//     no compressed swap cache in front of the swap device),
//   - no readahead: swap-in readahead reads by swap-slot order, which
//     rarely matches virtual order, and the paper's Fastswap results
//     reflect per-page fault costs on sequential sweeps ("weaker ability
//     to discern high-level knowledge about the access pattern", §4.3),
//   - LRU-style reclaim with cgroup accounting overhead.
package fastswap

import (
	"encoding/binary"
	"fmt"
	"sync"

	"trackfm/internal/fabric"
	"trackfm/internal/far"
	"trackfm/internal/sim"
)

// PageState tracks where a virtual page lives.
type PageState uint8

const (
	// PageUntouched pages have never been accessed: the first touch is a
	// minor (zero-fill) fault.
	PageUntouched PageState = iota
	// PageMapped pages are resident with a valid PTE: access is free.
	PageMapped
	// PageRemote pages were reclaimed to the remote node: access is a
	// major fault.
	PageRemote
)

// Config parameterizes the swap baseline.
type Config struct {
	// Env supplies clock, counters, and cost model. Required.
	Env *sim.Env
	// HeapSize caps the swappable heap.
	HeapSize uint64
	// LocalBudget is the cgroup memory limit: resident pages × pageSize
	// never exceeds it.
	LocalBudget uint64
	// RemoteConfig locates the swap device: an explicit Transport or a
	// RemoteAddr to dial. Leaving it zero selects an in-process SimLink over
	// the RDMA cost model (Fastswap's backend). A remote fault whose fetch
	// still fails after RemoteRetries wire attempts — or sooner, when the far
	// engine's retry budget refuses a re-issue under sustained faults — panics:
	// the moral equivalent of the SIGBUS the kernel delivers when swap-in I/O
	// fails. Unlike the object pool there is no degraded mode: the kernel
	// analogue has no application-visible fallback, so a missed OpDeadline
	// simply ends the attempts and surfaces (that SIGBUS for swap-in, a stalled
	// reclaim for swap-out).
	fabric.RemoteConfig
}

// Swap is a Fastswap-style kernel swap system for one application.
//
// Swap is safe for concurrent use, but deliberately coarse about it: one
// mutex serializes every fault, access, and reclaim — the moral equivalent
// of the kernel's mmap_lock, which is exactly the serialization Fastswap
// inherits and the paper's object runtime avoids with striping. The
// contrast is part of the model: under many goroutines the TrackFM pool
// scales while the swap baseline queues.
type Swap struct {
	mu  sync.Mutex
	env *sim.Env
	lat *sim.Latencies
	far *far.Engine // the swap device

	heapSize uint64
	brk      uint64

	states []PageState
	dirty  []bool
	refd   []bool   // referenced bit for the reclaim clock
	frame  []uint32 // resident page -> frame index

	arena      []byte   // every frame's bytes
	frameOwner []uint32 // frame -> page number
	freeFrames []uint32
	hand       int
}

const noPage = ^uint32(0)

// pageSize is the architected page size: Fastswap is "constrained by the
// page size" (§4.3), so unlike the pool's object size it is not a choice.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// New validates cfg and builds the swap system.
func New(cfg Config) (*Swap, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("fastswap: Config.Env is required")
	}
	if cfg.HeapSize == 0 {
		return nil, fmt.Errorf("fastswap: HeapSize is required")
	}
	nPages := (cfg.HeapSize + pageSize - 1) / pageSize
	nFrames := cfg.LocalBudget / pageSize
	if nFrames == 0 {
		return nil, fmt.Errorf("fastswap: LocalBudget %d holds no pages", cfg.LocalBudget)
	}
	engine, err := far.New(far.Config{
		Env:          cfg.Env,
		RemoteConfig: cfg.RemoteConfig,
		Backend:      fabric.BackendRDMA,
		UnitSize:     pageSize,
		DegradeAfter: -1, // no degraded mode: see Config.RemoteConfig
	})
	if err != nil {
		return nil, fmt.Errorf("fastswap: %w", err)
	}
	s := &Swap{
		env:        cfg.Env,
		lat:        cfg.Env.Lat(),
		far:        engine,
		heapSize:   cfg.HeapSize,
		states:     make([]PageState, nPages),
		dirty:      make([]bool, nPages),
		refd:       make([]bool, nPages),
		frame:      make([]uint32, nPages),
		arena:      make([]byte, nFrames*pageSize),
		frameOwner: make([]uint32, nFrames),
		freeFrames: make([]uint32, nFrames),
	}
	for i := range s.frameOwner {
		s.frameOwner[i] = noPage
		s.freeFrames[i] = uint32(i)
	}
	return s, nil
}

// Env returns the simulation environment.
func (s *Swap) Env() *sim.Env { return s.env }

// Close closes the far engine: a connection the swap itself dialed (the
// Config.RemoteAddr path) is released.
func (s *Swap) Close() error { return s.far.Close() }

// ResidentBytes reports bytes of resident pages (cgroup usage).
func (s *Swap) ResidentBytes() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(len(s.frameOwner)-len(s.freeFrames)) * pageSize
}

// Malloc bump-allocates n bytes and returns its heap offset. Fastswap
// needs no pointer tagging: any page can swap, so pointers are ordinary
// addresses (offsets into the simulated heap).
func (s *Swap) Malloc(n uint64) (uint64, error) {
	if n == 0 {
		n = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	const align = 16
	start := (s.brk + align - 1) &^ (align - 1)
	if start > s.heapSize || n > s.heapSize-start {
		return 0, fmt.Errorf("fastswap: heap exhausted")
	}
	s.brk = start + n
	return start, nil
}

// MustMalloc is Malloc that panics on exhaustion.
func (s *Swap) MustMalloc(n uint64) uint64 {
	off, err := s.Malloc(n)
	if err != nil {
		panic(err)
	}
	return off
}

// fault handles a page fault on page pg, returning its frame base.
func (s *Swap) fault(pg uint64, write bool) uint64 {
	switch s.states[pg] {
	case PageUntouched:
		// Zero-fill minor fault: kernel maps a fresh zeroed page.
		s.env.Clock.Advance(s.env.Costs.SwapFaultLocal)
		sim.Inc(&s.env.Counters.MinorFaults)
		f := s.takeFrame()
		base := uint64(f) * pageSize
		clear(s.frameBuf(base))
		s.install(pg, f, write)
		return base
	case PageRemote:
		// Major fault on a reclaimed page: the kernel fault path
		// (mapping + cgroups), then the frontswap RDMA pull, which the
		// link charges. Together they land on the paper's ~34K-cycle
		// remote fault (Table 2).
		s.env.Clock.Advance(s.env.Costs.SwapFaultLocal)
		sim.Inc(&s.env.Counters.MajorFaults)
		f := s.takeFrame()
		base := uint64(f) * pageSize
		if _, err := s.far.Fetch(pg, s.frameBuf(base)); err != nil {
			// The kernel's swap-in I/O-error path: the process gets
			// SIGBUS. Panicking with the typed fabric error is the
			// simulation analogue — under no circumstances is the
			// mutator handed a zero-filled page in place of its data.
			// The claimed frame goes back first: interp.Run recovers
			// such panics, and the swap must still have every frame.
			s.freeFrames = append(s.freeFrames, f)
			panic(fmt.Sprintf("fastswap: unrecoverable remote fault on page %d: %v", pg, err))
		}
		s.install(pg, f, write)
		return base
	default:
		panic("fastswap: fault on mapped page")
	}
}

// frameBuf returns the page-size bytes of the frame at base. The caller
// holds s.mu, which serializes all arena access.
func (s *Swap) frameBuf(base uint64) []byte {
	end := base + pageSize
	return s.arena[base:end:end]
}

func (s *Swap) install(pg uint64, f uint32, write bool) {
	s.states[pg] = PageMapped
	s.frame[pg] = f
	s.frameOwner[f] = uint32(pg)
	s.refd[pg] = true
	if write {
		s.dirty[pg] = true
	}
}

func (s *Swap) takeFrame() uint32 {
	f, ok := s.tryTakeFrame()
	if !ok {
		panic("fastswap: no reclaimable frame")
	}
	return f
}

// tryTakeFrame reclaims with a referenced-bit clock, charging the cgroup
// reclaim overhead per eviction.
func (s *Swap) tryTakeFrame() (uint32, bool) {
	if n := len(s.freeFrames); n > 0 {
		f := s.freeFrames[n-1]
		s.freeFrames = s.freeFrames[:n-1]
		return f, true
	}
	nFrames := len(s.frameOwner)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < nFrames; i++ {
			f := s.hand
			s.hand = (s.hand + 1) % nFrames
			pg := s.frameOwner[f]
			if pg == noPage {
				continue
			}
			if pass == 0 && s.refd[pg] {
				s.refd[pg] = false
				continue
			}
			if !s.evict(uint32(f), uint64(pg)) {
				continue // write-back stalled; scan for another victim
			}
			return uint32(f), true
		}
	}
	return 0, false
}

// evict reclaims frame f, reporting whether it completed. A dirty page
// whose write-back fails for good (see Config) stays mapped (it is the
// only copy of the data); the reclaim clock moves on to another victim,
// mirroring a kernel that cannot free a page while its swap-out I/O fails.
func (s *Swap) evict(f uint32, pg uint64) bool {
	start := s.env.Clock.Cycles()
	defer func() { s.lat.Evacuation.Observe(s.env.Clock.Cycles() - start) }()
	s.env.Clock.Advance(s.env.Costs.EvictPage)
	if !s.far.Evict(pg, s.frameBuf(uint64(f)*pageSize), s.dirty[pg]) {
		return false
	}
	s.dirty[pg], s.refd[pg] = false, false
	s.states[pg] = PageRemote
	s.frameOwner[f] = noPage
	sim.Inc(&s.env.Counters.PageEvictions)
	return true
}

// EvacuateAll reclaims every resident page, starting measurement cold.
func (s *Swap) EvacuateAll() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for f, pg := range s.frameOwner {
		if pg == noPage {
			continue
		}
		if s.evict(uint32(f), uint64(pg)) {
			s.freeFrames = append(s.freeFrames, uint32(f))
		}
	}
	// Reclaimed means far. A flush that fails leaves the copies where a
	// fault still finds them, to be pushed with the next exchange.
	_ = s.far.Flush()
}

// access moves len(buf) bytes at heap offset off, faulting as needed.
// The whole access, fault included, runs under the mmap_lock-like mutex.
func (s *Swap) access(off uint64, buf []byte, write bool) {
	if off > s.heapSize || uint64(len(buf)) > s.heapSize-off {
		panic(fmt.Sprintf("fastswap: access at %#x+%d beyond heap end", off, len(buf)))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	done, total := uint64(0), uint64(len(buf))
	for done < total {
		pg := (off + done) >> pageShift
		inPg := (off + done) & (pageSize - 1)
		n := pageSize - inPg
		if total-done < n {
			n = total - done
		}
		var base uint64
		if s.states[pg] == PageMapped {
			base = uint64(s.frame[pg]) * pageSize
			s.refd[pg] = true
			if write {
				s.dirty[pg] = true
			}
		} else {
			base = s.fault(pg, write)
		}
		lines := (n + 63) / 64
		s.env.Clock.Advance(lines * s.env.Costs.LocalLoadStore)
		if write {
			copy(s.arena[base+inPg:], buf[done:done+n])
		} else {
			copy(buf[done:done+n], s.arena[base+inPg:])
		}
		done += n
	}
}

// Load reads len(dst) bytes at heap offset off.
func (s *Swap) Load(off uint64, dst []byte) { s.access(off, dst, false) }

// Store writes src at heap offset off.
func (s *Swap) Store(off uint64, src []byte) { s.access(off, src, true) }

// LoadU64 reads a little-endian uint64 at off.
func (s *Swap) LoadU64(off uint64) uint64 {
	var buf [8]byte
	s.access(off, buf[:], false)
	return binary.LittleEndian.Uint64(buf[:])
}

// StoreU64 writes a little-endian uint64 at off.
func (s *Swap) StoreU64(off uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.access(off, buf[:], true)
}
