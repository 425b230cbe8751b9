// Package aifm implements the far-memory object runtime TrackFM builds on:
// an object pool with local/remote object states, the 8-byte metadata
// formats from the paper's Figure 3, a clock evacuator that honours pin
// counts (the pin is what AIFM's DerefScope holds on an object), and a
// stride prefetcher. The paper's AIFM comparator runs over this same pool,
// through core.NewLibraryRuntime.
//
// AIFM (Ruan et al., OSDI '20) manages remotable memory at the granularity
// of fixed-size objects. Each object is either local (resident in the local
// memory arena) or remote (resident on the far memory node); a single
// application allocation can span many objects, each in an independent
// state — the "superposition" property that distinguishes this runtime from
// classic DSM systems.
package aifm

// ObjectID names one fixed-size object within a pool. IDs are derived from
// far-memory virtual addresses by the TrackFM layer (address / object size).
type ObjectID uint64

// Meta is the packed 8-byte object metadata word, reproducing the two
// formats in Figure 3 of the paper. Bit 63 (P) selects the format:
//
//	local  (P=1): [63 P=1][62 D dirty][61 E evacuating][60 H hot]
//	              [59 PF prefetched][55:9 data addr (47 bits)][7:0 DS id]
//	remote (P=0): [63 P=0][62 S shared][55:48 DS id]
//	              [47:32 obj size (16 bits)][37:0 obj id (38 bits)]
//
// Note the remote format's obj-id field overlaps the size field's low bits
// in the figure's rendering; here the fields are disjoint: size occupies
// bits 47:32 and the object id bits 31:0 plus 61:56 (38 bits total). The
// guard only ever tests the safety mask, so the exact remote packing is an
// internal detail verified by round-trip tests.
type Meta uint64

// Local-format bit assignments.
const (
	MetaP  Meta = 1 << 63 // present (local)
	MetaD  Meta = 1 << 62 // dirty
	MetaE  Meta = 1 << 61 // being evacuated / evacuation candidate
	MetaH  Meta = 1 << 60 // hot (accessed since last clock sweep)
	MetaPF Meta = 1 << 59 // localized by prefetch, not yet demanded

	metaAddrShift = 9
	metaAddrBits  = 47
	metaAddrMask  = Meta((1<<metaAddrBits)-1) << metaAddrShift
	metaDSMask    = Meta(0xFF)
)

// Remote-format field layout (P=0).
const (
	remoteDSShift   = 48
	remoteSizeShift = 32
	remoteIDLoBits  = 32
	remoteIDHiShift = 56 // bits 61:56 hold obj id bits 37:32
	remoteIDHiMask  = Meta(0x3F) << remoteIDHiShift
)

// SafeMask is the set of bits the fast-path guard tests with a single
// masked load (the paper's `test $0x10580,%eax` against AIFM's internal
// representation). An object is safe for direct access iff it is present
// and not being evacuated: P set, E clear. The guard computes
// meta&SafeMask == MetaP.
const SafeMask = MetaP | MetaE

// Safe reports whether the object may be accessed directly on the fast
// path: localized and not a candidate for evacuation.
func (m Meta) Safe() bool { return m&SafeMask == MetaP }

// Present reports whether the object is local.
func (m Meta) Present() bool { return m&MetaP != 0 }

// Dirty reports whether the local copy has unwritten modifications.
func (m Meta) Dirty() bool { return m&MetaD != 0 }

// Hot reports whether the object was accessed since the last clock sweep.
func (m Meta) Hot() bool { return m&MetaH != 0 }

// Prefetched reports whether the object was localized by the prefetcher
// and has not yet been demanded by the application.
func (m Meta) Prefetched() bool { return m&MetaPF != 0 }

// LocalMeta builds a local-format metadata word.
func LocalMeta(dataAddr uint64, dsID uint8) Meta {
	return MetaP | (Meta(dataAddr)<<metaAddrShift)&metaAddrMask | Meta(dsID)
}

// DataAddr extracts the 47-bit local data address. Only meaningful for
// local-format words.
func (m Meta) DataAddr() uint64 {
	return uint64((m & metaAddrMask) >> metaAddrShift)
}

// DSID extracts the data-structure (pool) id from either format.
func (m Meta) DSID() uint8 {
	if m.Present() {
		return uint8(m & metaDSMask)
	}
	return uint8(m >> remoteDSShift)
}

// RemoteMeta builds a remote-format metadata word.
func RemoteMeta(id ObjectID, size uint32, dsID uint8) Meta {
	if size > 0xFFFF {
		panic("aifm: object size exceeds 16-bit remote-format field")
	}
	if id >= 1<<38 {
		panic("aifm: object id exceeds 38-bit remote-format field")
	}
	m := Meta(dsID) << remoteDSShift
	m |= Meta(size) << remoteSizeShift
	m |= Meta(id & 0xFFFFFFFF)
	m |= (Meta(id>>remoteIDLoBits) << remoteIDHiShift) & remoteIDHiMask
	return m
}

// RemoteID extracts the 38-bit object id from a remote-format word.
func (m Meta) RemoteID() ObjectID {
	lo := uint64(m & 0xFFFFFFFF)
	hi := uint64((m&remoteIDHiMask)>>remoteIDHiShift) << remoteIDLoBits
	return ObjectID(hi | lo)
}

// RemoteSize extracts the 16-bit object size from a remote-format word.
func (m Meta) RemoteSize() uint32 {
	return uint32(m>>remoteSizeShift) & 0xFFFF
}
