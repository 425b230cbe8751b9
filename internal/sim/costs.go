package sim

// CostModel is the calibrated table of primitive cycle costs used by every
// backend. Defaults reproduce the paper's measured medians (Tables 1 and 2)
// on the CloudLab x170 testbed. All costs are in CPU cycles at 2.40 GHz.
//
// "Cached" costs apply when the metadata touched by the primitive (the
// TrackFM object state table entry, or the kernel's page-table/swap-cache
// lines) is warm in the CPU cache; "uncached" costs apply on first touch.
type CostModel struct {
	// LocalLoadStore is the cost of an unguarded local load/store
	// instruction (paper §4.1: 36 cycles).
	LocalLoadStore uint64

	// CustodyCheck is the cost of the custody check alone, paid when a
	// pointer turns out not to be TrackFM-managed and the original
	// load/store runs (roughly four instructions, §3.3).
	CustodyCheck uint64

	// Guard costs, Table 1.
	FastGuardReadCached    uint64 // 21
	FastGuardWriteCached   uint64 // 21
	FastGuardReadUncached  uint64 // 297
	FastGuardWriteUncached uint64 // 309
	SlowGuardReadCached    uint64 // 144
	SlowGuardWriteCached   uint64 // 159
	SlowGuardReadUncached  uint64 // 453
	SlowGuardWriteUncached uint64 // 432

	// Loop-chunking primitive costs (§3.4). A boundary check is 3
	// instructions versus the 14-instruction fast-path guard; the
	// locality-invariant guard is a runtime call slightly more expensive
	// than a slow-path guard because it also pins the object. ChunkInit
	// is the one-time tfm_init/tfm_rw runtime call on loop entry that
	// registers the chunk state; it is what makes chunking detrimental
	// for short loops (k-means, Fig. 8) and fixes the empirical
	// crossover of Fig. 6 at ~730 elements per object.
	BoundaryCheck        uint64 // ~5 cycles (3 instructions)
	LocalityInvariantPin uint64 // ~180 cycles
	ChunkInit            uint64 // ~11.6K cycles, once per loop entry

	// Fastswap fault costs, Table 2. SwapFaultLocal is the kernel fault
	// path (mapping + cgroup accounting) charged on every fault;
	// SwapFaultRemote is the paper's measured END-TO-END remote fault
	// cost, kept as the calibration target: the simulator composes a
	// major fault as SwapFaultLocal + RemotePageFetch(page), and the
	// RDMA fixed cost below is tuned so that sum lands on this value.
	SwapFaultLocal  uint64 // 1_300 (page present locally / zero-fill)
	SwapFaultRemote uint64 // 34_000 (calibration target, not charged directly)

	// Remote fetch base latencies (request/response software overhead plus
	// wire latency, excluding the bandwidth term). Calibration targets
	// from Table 2: a remote object access via AIFM's TCP backend costs
	// ~35K cycles end-to-end including the slow guard (453 + fixed +
	// xfer(4KiB) = ~35.4K), and a Fastswap remote fault costs ~34K
	// (SwapFaultLocal + fixed + xfer(4KiB) = ~34K). The bandwidth term
	// for 4KB at 25 Gb/s is ~3.1K cycles.
	RemoteFetchFixedTCP  uint64 // AIFM/TrackFM backend fixed cost
	RemoteFetchFixedRDMA uint64 // Fastswap backend fixed cost

	// NetworkBytesPerCycle is the interconnect bandwidth expressed in
	// bytes per CPU cycle. 25 Gb/s at 2.4 GHz is ~1.3 B/cycle.
	NetworkBytesPerCycle float64

	// MetaIndirectCached/Uncached model AIFM's second metadata memory
	// reference — the one TrackFM's object state table eliminates
	// (§3.2: "Determining this state in AIFM requires two memory
	// references... TrackFM eliminates one of these operations").
	// Charged on guards only when the OST is disabled (ablation).
	MetaIndirectCached   uint64
	MetaIndirectUncached uint64

	// EvacuateObject is the software cost of evacuating one object to the
	// remote node (excluding the transfer term); EvictPage likewise for a
	// Fastswap page reclaim including cgroup accounting (§4.1 notes
	// mapping and cgroups memory reclamation as Fastswap overheads).
	EvacuateObject uint64
	EvictPage      uint64

	// MallocCost and FreeCost charge the TrackFM-managed allocation calls
	// (libc transformation pass, §3.1).
	MallocCost uint64
	FreeCost   uint64

	// DerefScopeCost charges entering+leaving an AIFM DerefScope, paid by
	// the library-mode comparator when it localizes an object (see
	// Library); the slow-guard constants above already include it.
	DerefScopeCost uint64

	// SmartPointerIndirection is AIFM's per-access overhead in library
	// mode (§4.1 notes AIFM "does incur overhead for smart pointer
	// indirection").
	SmartPointerIndirection uint64

	// Compressed-tier costs. A demotion pays TierAccessFixed plus the
	// compression bandwidth term; a promotion (tier hit) pays
	// TierAccessFixed plus the decompression term. Rates follow
	// single-core LZ-class codecs (compress ~2 GB/s, decompress ~5 GB/s
	// at 2.4 GHz ⇒ ~0.8 and ~2.0 B/cycle): a 4 KiB tier hit lands near
	// 2.4K cycles against ~35K for the TCP fetch it replaces, which is
	// the entire economics of the middle tier. The in-repo codec
	// (ctier.BenchmarkEncode/Decode on a 4 KiB fmbench object, medians
	// of 12 runs on a 2-vCPU Xeon VM, read as B/cycle at 2.4 GHz) does
	// not reach these rates: encode 204 → 301 MB/s ≈ 0.085 → 0.125 and
	// decode 530 → 637 MB/s ≈ 0.22 → 0.27 B/cycle, before → after the
	// encoder's generation-stamped table and the decoder's one-move short
	// copy. The modelled rates are a target for the codec, not a
	// measurement of it. A clean re-demotion of an object promoted from
	// the tier still pays TierCompress, although the tier re-admits the
	// block it kept instead of encoding: a wall-below-sim gap, kept so
	// that the model does not move.
	TierAccessFixed         uint64  // map/queue bookkeeping per tier op
	CompressBytesPerCycle   float64 // demotion (compression) bandwidth
	DecompressBytesPerCycle float64 // promotion (decompression) bandwidth

	// PrefetchIssue is the unhidable per-message software cost of one
	// asynchronous prefetch (issue + completion handling on the TCP
	// backend). A prefetched object pays max(PrefetchIssue, bandwidth
	// term): the fixed network latency overlaps with computation, which
	// is how AIFM's prefetcher hides remote fetch latency (§4.3), but
	// many small packets cannot reach wire bandwidth (§3.2).
	PrefetchIssue uint64
}

// DefaultCosts returns the cost model calibrated to the paper's Tables 1-2.
func DefaultCosts() CostModel {
	return CostModel{
		LocalLoadStore: 36,
		CustodyCheck:   6,

		FastGuardReadCached:    21,
		FastGuardWriteCached:   21,
		FastGuardReadUncached:  297,
		FastGuardWriteUncached: 309,
		SlowGuardReadCached:    144,
		SlowGuardWriteCached:   159,
		SlowGuardReadUncached:  453,
		SlowGuardWriteUncached: 432,

		BoundaryCheck:        1, // 3 ALU instructions retire ~1/cycle wall
		LocalityInvariantPin: 180,
		ChunkInit:            14_564, // crossover at (14564+180-144)/(21-1) = 730

		SwapFaultLocal:  1_300,
		SwapFaultRemote: 34_000,

		RemoteFetchFixedTCP:  31_800, // 453 + this + xfer(4KiB) ⇒ ~35.4K
		RemoteFetchFixedRDMA: 29_554, // 1300 + this + xfer(4KiB) ⇒ ~34.0K

		NetworkBytesPerCycle: 1.302, // 25 Gb/s at 2.4 GHz

		MetaIndirectCached:   14,
		MetaIndirectUncached: 180,

		EvacuateObject: 600,
		EvictPage:      2_000,

		MallocCost: 120,
		FreeCost:   80,

		DerefScopeCost:          30,
		SmartPointerIndirection: 12,
		PrefetchIssue:           1_500,

		TierAccessFixed:         300,
		CompressBytesPerCycle:   0.8,
		DecompressBytesPerCycle: 2.0,
	}
}

// Library returns m as the hand-ported AIFM comparator pays it (§4.5): the
// same fetch, transfer, eviction and tier costs, but no compiler-injected
// guard layer. Every access pays the smart-pointer indirection; one that
// finds its object remote — a slow guard's case — or moves a chunked
// stream to its next object also enters a DerefScope. The boundary check,
// the chunk set-up, the custody check and the allocator calls are free: a
// library iterator compares nothing per element, and a hand port knows
// which pointers are remotable and allocates them itself.
func (m *CostModel) Library() CostModel {
	lib := *m
	deref := m.SmartPointerIndirection
	scope := deref + m.DerefScopeCost
	lib.FastGuardReadCached, lib.FastGuardWriteCached = deref, deref
	lib.FastGuardReadUncached, lib.FastGuardWriteUncached = deref, deref
	lib.SlowGuardReadCached, lib.SlowGuardWriteCached = scope, scope
	lib.SlowGuardReadUncached, lib.SlowGuardWriteUncached = scope, scope
	lib.LocalityInvariantPin = scope
	lib.BoundaryCheck, lib.ChunkInit, lib.CustodyCheck = 0, 0, 0
	lib.MallocCost, lib.FreeCost = 0, 0
	return lib
}

// TransferCycles returns the bandwidth term for moving n bytes across the
// interconnect.
func (m *CostModel) TransferCycles(n int) uint64 {
	if n <= 0 {
		return 0
	}
	return uint64(float64(n) / m.NetworkBytesPerCycle)
}

// RemoteObjectFetch returns the full cost of fetching an n-byte object via
// the AIFM TCP backend: fixed software+wire latency plus the bandwidth term.
func (m *CostModel) RemoteObjectFetch(n int) uint64 {
	return m.RemoteFetchFixedTCP + m.TransferCycles(n)
}

// RemotePageFetch returns the full cost of fetching an n-byte page via the
// Fastswap RDMA backend.
func (m *CostModel) RemotePageFetch(n int) uint64 {
	return m.RemoteFetchFixedRDMA + m.TransferCycles(n)
}

// TierCompress returns the cost of demoting an n-byte object into the
// compressed tier.
func (m *CostModel) TierCompress(n int) uint64 {
	if m.CompressBytesPerCycle <= 0 {
		return m.TierAccessFixed
	}
	return m.TierAccessFixed + uint64(float64(n)/m.CompressBytesPerCycle)
}

// TierDecompress returns the cost of promoting an n-byte object out of
// the compressed tier — the latency a tier hit pays instead of a fabric
// round trip.
func (m *CostModel) TierDecompress(n int) uint64 {
	if m.DecompressBytesPerCycle <= 0 {
		return m.TierAccessFixed
	}
	return m.TierAccessFixed + uint64(float64(n)/m.DecompressBytesPerCycle)
}
