// Package remote implements the remote memory node: a keyed blob store
// holding evacuated objects (TrackFM/AIFM) or swapped-out pages (Fastswap),
// and a TCP server exposing it over the wire protocol in package fabric.
//
// There is one blob map, Store. How it holds bytes at rest — verbatim, or
// as ctier codec streams — is fixed by its constructor; durability is a
// write-ahead log and snapshots around it (DurableStore). The two are
// independent: the log and the snapshot record raw payloads, so a data
// directory does not care which constructor built the store it recovers
// into.
package remote

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/mem/ctier"
)

// Integrity errors surfaced by Get. A far-memory blob is written exactly as
// wide as its object or page, so a stored blob shorter than the requested
// read is corruption (a truncated write, bit rot in the length accounting),
// not a miss — the old behaviour of silently zero-filling the tail handed
// the mutator fabricated data. Callers (the fabric server) turn these into
// error frames on the wire.
var (
	// ErrSizeMismatch reports a stored blob shorter than the requested
	// read — a truncated blob is corruption, not a miss.
	ErrSizeMismatch = errors.New("remote: stored blob shorter than requested read")

	// ErrChecksum reports a stored blob whose bytes no longer match the
	// CRC32-C recorded when it was put — in-memory corruption on the node.
	ErrChecksum = errors.New("remote: stored blob fails its checksum")
)

// castagnoli is the CRC32-C polynomial table shared by every checksum in
// the store. CRC32-C matches the wire-trailer checksum in package fabric,
// so an intact blob has one checksum identity end to end.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum computes the CRC32-C checksum the store records for a payload.
// Exported so the fabric layer's wire trailer shares one definition of
// "intact".
func Checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

// blob is one stored payload. data is the bytes at rest in a bufpool lease:
// the payload itself, or on a compressing store a ctier codec stream (which
// degrades to a flagged verbatim copy for incompressible input). rawLen is
// the payload's width and crc the CRC32-C over the RAW bytes recorded at
// Put — one checksum identity whatever the codec, shared with the wire
// trailer, the WAL and the snapshot, so corruption of the stored stream or
// of the decompressor's output is caught before a client sees it.
type blob struct {
	data   []byte
	rawLen int
	crc    uint32
	lease  bufpool.Lease
}

// Store is a thread-safe blob store keyed by object or page ID. It is the
// memory of the remote node. Every blob carries a CRC32-C computed at Put
// time and verified at Get time, so corruption of stored bytes is detected
// at the node instead of being served to a client. The zero value is not
// ready; use NewStore or NewCompressedStore.
type Store struct {
	mu      sync.RWMutex
	blobs   map[uint64]blob
	enc     *ctier.Encoder // non-nil: blobs rest as ctier streams; fixed at construction
	scratch []byte         // Put-side encode buffer, reused under mu
	bytes   uint64         // payload bytes at rest
	raw     uint64         // payload bytes the blobs represent
	stats   StoreStats
	clears  uint64 // lifetime Clear calls; deliberately NOT reset by Clear
}

// StoreStats counts integrity events observed by the store.
type StoreStats struct {
	SizeMismatches uint64 // Gets that found a too-short blob
	ChecksumFails  uint64 // Gets that found a blob failing its CRC
}

// NewStore returns an empty store that holds payloads verbatim.
func NewStore() *Store {
	return &Store{blobs: make(map[uint64]blob)}
}

// NewCompressedStore returns an empty store that holds every payload
// compressed at rest: the server-side sibling of the client's compressed
// middle tier (internal/mem/ctier). Where the tier trades local CPU for
// avoided fabric round trips, this trades remote CPU for remote DRAM — a
// node with N bytes of physical memory advertises roughly N×ratio bytes of
// far memory (RawBytes over Bytes). Its contract is Store's, unchanged:
// clients, the WAL and the snapshot see raw bytes and the raw CRC32-C.
func NewCompressedStore() *Store {
	s := NewStore()
	s.enc = new(ctier.Encoder)
	return s
}

// Put stores a copy of src under key, replacing any previous blob, and
// records its CRC32-C. The error is always nil for the in-memory store;
// the signature exists so *Store and *DurableStore (whose Put can fail on
// a WAL append) satisfy one store interface.
//
// An overwrite that is as wide at rest as the blob it replaces — the steady
// state of write-back traffic, where every push of an object or page is
// exactly as wide as the last — reuses the stored buffer in place instead
// of allocating; new keys and size changes draw from the wire buffer pool
// and release the displaced blob back to it. Because blobs are rewritten
// after publication, Get reads under the lock rather than after it. A
// compressing store encodes under the lock too: the encoder and its
// scratch are the store's, not the caller's.
func (s *Store) Put(key uint64, src []byte) error {
	s.put(key, src, Checksum(src))
	return nil
}

// put is Put for a caller that already knows src's CRC32-C: the snapshot
// loader, which has just verified it.
func (s *Store) put(key uint64, src []byte, crc uint32) {
	s.mu.Lock()
	rest := src
	if s.enc != nil {
		rest = s.enc.Encode(s.scratch, src)
		s.scratch = rest[:0]
	}
	old, ok := s.blobs[key] // absent: the zero blob, whose lease releases as a no-op
	b := old
	if !ok || len(old.data) != len(rest) {
		old.lease.Release()
		b.lease = bufpool.Get(len(rest))
		b.data = b.lease.Bytes()
	}
	copy(b.data, rest)
	b.rawLen, b.crc = len(src), crc
	s.blobs[key] = b
	s.bytes += uint64(len(b.data)) - uint64(len(old.data))
	s.raw += uint64(b.rawLen) - uint64(old.rawLen)
	s.mu.Unlock()
}

// reserve sizes an empty store's map for n blobs, so that loading that many
// does not grow it a doubling at a time.
func (s *Store) reserve(n int) {
	s.mu.Lock()
	if len(s.blobs) == 0 {
		s.blobs = make(map[uint64]blob, n)
	}
	s.mu.Unlock()
}

// Get copies the blob under key into dst and reports whether it existed.
// An absent key zero-fills dst and returns (false, nil) — freshly
// allocated remote memory reads as zeros. A present blob is verified
// against its stored CRC32-C and its length: a checksum failure (on a
// compressing store also a stream that fails to decode, or decodes to the
// wrong width) returns ErrChecksum, a blob shorter than dst returns
// ErrSizeMismatch (a truncated blob is corruption, not a miss). On error
// the contents of dst are unspecified. A blob longer than dst serves the
// prefix: a sub-object read is well-formed.
func (s *Store) Get(key uint64, dst []byte) (bool, error) {
	// Verify and copy while holding the read lock: since Put rewrites
	// blobs in place, published bytes are not immutable and must not be
	// touched outside the lock. Readers still proceed in parallel with
	// each other.
	s.mu.RLock()
	b, ok := s.blobs[key]
	if !ok {
		s.mu.RUnlock()
		clear(dst)
		return false, nil
	}
	err := s.read(b, dst)
	s.mu.RUnlock()
	if err != nil {
		s.mu.Lock()
		if err == ErrChecksum {
			s.stats.ChecksumFails++
		} else {
			s.stats.SizeMismatches++
		}
		s.mu.Unlock()
	}
	return true, err
}

// payload returns b's raw bytes: b.data itself on a plain store, otherwise
// its stream decoded into buf (which Decode replaces if it is too small). A
// stream that fails to decode, or decodes to another width than the one
// recorded, is ErrChecksum. The caller holds s.mu.
func (s *Store) payload(b blob, buf []byte) ([]byte, error) {
	if s.enc == nil {
		return b.data, nil
	}
	raw, err := ctier.Decode(buf[:0], b.data)
	if err != nil || len(raw) != b.rawLen {
		return nil, ErrChecksum
	}
	return raw, nil
}

// read verifies b — checksum first, then length — and copies its first
// len(dst) raw bytes into dst. The caller holds s.mu for reading.
//
// A read exactly as wide as the blob — every fetch of a whole object or
// page — lands in dst first and is verified there: the copy (or, on a
// compressing store, the decode) is the one pass over the bytes at rest,
// the checksum runs over warm bytes, and the bytes it checked are the ones
// served. Any other width verifies the whole blob before copying the
// prefix: where it rests on a plain store, decoded into pooled scratch on
// a compressing one.
func (s *Store) read(b blob, dst []byte) error {
	raw, whole := b.data, b.rawLen == len(dst)
	var err error
	switch {
	case whole && s.enc == nil:
		raw = dst[:copy(dst, raw)]
	case whole:
		raw, err = s.payload(b, dst)
	case s.enc != nil:
		lease := bufpool.Get(b.rawLen)
		defer lease.Release()
		raw, err = s.payload(b, lease.Bytes())
	}
	switch {
	case err != nil:
		return err
	case Checksum(raw) != b.crc:
		return ErrChecksum
	case len(raw) < len(dst):
		return ErrSizeMismatch
	}
	if !whole {
		copy(dst, raw)
	}
	return nil
}

// each calls fn with every blob's key, raw payload and recorded CRC32-C —
// what a snapshot entry holds — in ascending key order, so identical
// states walk identically, and stops at fn's first error. raw is valid
// only during the call; on a compressing store it is decoded into one
// reused buffer, and a stream that no longer decodes fails the walk
// instead of reaching disk. The read lock is held throughout.
func (s *Store) each(fn func(key uint64, raw []byte, crc uint32) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]uint64, 0, len(s.blobs))
	for k := range s.blobs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	var scratch []byte
	for _, k := range keys {
		b := s.blobs[k]
		raw, err := s.payload(b, scratch)
		if err != nil {
			return fmt.Errorf("remote: blob %d: %w", k, err)
		}
		if s.enc != nil {
			scratch = raw
		}
		if err := fn(k, raw, b.crc); err != nil {
			return err
		}
	}
	return nil
}

// Stats returns a copy of the store's integrity counters.
func (s *Store) Stats() StoreStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.stats
}

// Delete removes key. Deleting an absent key is a no-op. The error is
// always nil (see Put).
func (s *Store) Delete(key uint64) error {
	s.mu.Lock()
	if old, ok := s.blobs[key]; ok {
		s.bytes -= uint64(len(old.data))
		s.raw -= uint64(old.rawLen)
		delete(s.blobs, key)
		old.lease.Release()
	}
	s.mu.Unlock()
	return nil
}

// Clear resets the node between experiment phases (e.g. a fault-injection
// harness reusing one server across scenarios): every blob is dropped —
// taking the per-blob CRCs and any FlipByte fault-hook corruption with it —
// and the integrity counters are zeroed, so events from one phase cannot
// bleed into the next phase's assertions. Only the lifetime clear count
// (Clears) survives, so observers can tell resets happened.
func (s *Store) Clear() {
	s.mu.Lock()
	for _, b := range s.blobs {
		b.lease.Release()
	}
	s.blobs = make(map[uint64]blob)
	s.bytes, s.raw = 0, 0
	s.stats = StoreStats{}
	s.clears++
	s.mu.Unlock()
}

// Clears reports lifetime Clear calls; unlike the integrity counters it is
// not reset by Clear itself.
func (s *Store) Clears() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clears
}

// FlipByte XORs 0xFF into byte i of whatever key's blob holds at rest,
// without updating its recorded checksum. It is a fault-injection hook
// modelling bit rot on the remote node (the counterpart of
// fabric.FaultLink's in-flight corruption); a later Get of the blob fails
// with ErrChecksum. It reports whether the blob existed and was wide
// enough at rest to corrupt.
func (s *Store) FlipByte(key uint64, i int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.blobs[key]
	if !ok || i < 0 || i >= len(b.data) {
		return false
	}
	b.data[i] ^= 0xFF
	return true
}

// Len reports the number of stored blobs.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.blobs)
}

// Bytes reports the payload bytes held at rest: what the blobs cost the
// node in memory.
func (s *Store) Bytes() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// RawBytes reports the payload bytes the blobs represent: equal to Bytes
// on a plain store; on a compressing one RawBytes/Bytes is the node's
// effective memory multiplier.
func (s *Store) RawBytes() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.raw
}
