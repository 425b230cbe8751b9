package remote

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// A snapshot is a compact, self-checking image of the whole store at one
// point in time, written so the WAL can be truncated behind it:
//
//	magic "TFMSNAP1"(8)  gen(8)  count(8)
//	count entries of:  key(8)  size(4)  crc32c(4)  payload(size)
//
// all integers big-endian. Every entry carries the blob's CRC32-C — the
// same checksum identity the store records at Put time and the wire
// trailer uses — so a snapshot damaged at rest is detected entry by entry.
// Snapshots are written to a temp file, fsynced, and renamed over the
// previous one: a crash mid-write leaves the old snapshot intact, and
// recovery never sees a half-written image. Replaying a stale WAL on top
// of a newer snapshot is harmless (records are replayed in log order, so
// the final value per key is the log's last word), which is what makes the
// rename-then-truncate sequence crash-safe at every interleaving.

const (
	snapshotFile = "snapshot"
	snapshotTmp  = "snapshot.tmp"
	walFile      = "wal"
)

// snapshotBufSize is writeSnapshot's write buffer: a store of 4 KiB blobs
// leaves in one write(2) per MiB instead of one per blob.
const snapshotBufSize = 1 << 20

var snapMagic = [8]byte{'T', 'F', 'M', 'S', 'N', 'A', 'P', '1'}

// errSnapshotInvalid reports a snapshot that failed structural or checksum
// validation; recovery falls back to replaying the full WAL from empty.
var errSnapshotInvalid = errors.New("remote: snapshot invalid")

// writeSnapshot atomically replaces dir's snapshot with an image of s at
// generation gen, returning the bytes written. Entries are s.each's: raw
// payloads in sorted key order, so identical states produce identical
// files whichever way the store holds them at rest. The caller keeps
// mutators out for the duration.
func writeSnapshot(dir string, gen uint64, s *Store) (int64, error) {
	tmp := filepath.Join(dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return 0, fmt.Errorf("remote: snapshot create: %w", err)
	}
	w := bufio.NewWriterSize(f, snapshotBufSize)
	var hdr [24]byte
	copy(hdr[:8], snapMagic[:])
	binary.BigEndian.PutUint64(hdr[8:16], gen)
	binary.BigEndian.PutUint64(hdr[16:24], uint64(s.Len()))
	written := int64(0)
	write := func(p []byte) error {
		n, err := w.Write(p)
		written += int64(n)
		return err
	}
	if err = write(hdr[:]); err == nil {
		var ent [16]byte
		err = s.each(func(key uint64, raw []byte, crc uint32) error {
			binary.BigEndian.PutUint64(ent[0:8], key)
			binary.BigEndian.PutUint32(ent[8:12], uint32(len(raw)))
			binary.BigEndian.PutUint32(ent[12:16], crc)
			if err := write(ent[:]); err != nil {
				return err
			}
			return write(raw)
		})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("remote: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotFile)); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("remote: snapshot rename: %w", err)
	}
	syncDir(dir) // best-effort: make the rename itself durable
	return written, nil
}

// syncDir fsyncs a directory so a just-renamed file survives power loss.
// Failures are ignored: not every platform or filesystem allows it, and
// the fallback (the rename reaching disk with the next metadata flush) is
// the same behaviour every append-only logger accepts.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// loadSnapshot reads and validates dir's snapshot and, only once every
// entry has checked out, puts its blobs into s — through the put WAL replay's
// Put uses, so s holds them at rest its own way. It returns the blob count and
// the snapshot's generation. A missing snapshot returns os.ErrNotExist; any
// structural damage or checksum failure returns errSnapshotInvalid with s
// untouched, however deep in the file the damage sits.
func loadSnapshot(dir string, s *Store) (int, uint64, error) {
	raw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, os.ErrNotExist
		}
		return 0, 0, fmt.Errorf("remote: snapshot read: %w", err)
	}
	if len(raw) < 24 || [8]byte(raw[:8]) != snapMagic {
		return 0, 0, fmt.Errorf("%w: bad header", errSnapshotInvalid)
	}
	gen := binary.BigEndian.Uint64(raw[8:16])
	count := binary.BigEndian.Uint64(raw[16:24])
	if count > uint64(len(raw)-24)/16 {
		return 0, 0, fmt.Errorf("%w: %d entries cannot fit in %d bytes", errSnapshotInvalid, count, len(raw))
	}
	type entry struct {
		key     uint64
		crc     uint32
		payload []byte // aliases raw
	}
	entries := make([]entry, 0, count)
	off := 24
	for i := uint64(0); i < count; i++ {
		if len(raw)-off < 16 {
			return 0, 0, fmt.Errorf("%w: truncated entry header", errSnapshotInvalid)
		}
		key := binary.BigEndian.Uint64(raw[off : off+8])
		size := binary.BigEndian.Uint32(raw[off+8 : off+12])
		crc := binary.BigEndian.Uint32(raw[off+12 : off+16])
		off += 16
		if size > maxWALPayload || len(raw)-off < int(size) {
			return 0, 0, fmt.Errorf("%w: truncated entry payload", errSnapshotInvalid)
		}
		payload := raw[off : off+int(size)]
		off += int(size)
		if Checksum(payload) != crc {
			return 0, 0, fmt.Errorf("%w: entry checksum (key %d)", errSnapshotInvalid, key)
		}
		entries = append(entries, entry{key, crc, payload})
	}
	if off != len(raw) {
		return 0, 0, fmt.Errorf("%w: %d trailing bytes", errSnapshotInvalid, len(raw)-off)
	}
	s.reserve(len(entries))
	for _, e := range entries {
		s.put(e.key, e.payload, e.crc) // verified above: not summed twice
	}
	return s.Len(), gen, nil
}
