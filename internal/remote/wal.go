package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync/atomic"
)

// The write-ahead log is the durability backbone of the remote node: every
// mutation (Put, Delete, Clear, and the per-boot generation bump) is
// appended as one self-checking record before it is applied to memory and
// acknowledged. Records are CRC32-C framed so recovery can tell a valid
// record from a torn or bit-rotted tail without trusting anything else on
// disk:
//
//	crc(4, big-endian)  size(4, big-endian)  op(1)  key(8, big-endian)  payload(size-9)
//
// where size counts everything after the size field (op + key + payload)
// and crc covers everything after the crc field (size + op + key +
// payload). A record is valid iff its size is plausible, the buffer holds
// all of it, and the CRC verifies; recovery replays valid records in order
// and truncates the log at the first record that is not — a torn tail from
// a crash mid-append loses only the unacknowledged record being written,
// never an acknowledged one (under FsyncAlways).

// WAL operation codes. They are disk format: never renumber.
const (
	walOpPut    = byte(1) // key + payload: store payload under key
	walOpDelete = byte(2) // key: remove key
	walOpClear  = byte(3) // drop every blob (experiment-phase reset)
	walOpGen    = byte(4) // key carries the node's new restart generation
)

const (
	// walHdrLen is the crc+size prefix; walRecFixed is op+key.
	walHdrLen   = 8
	walRecFixed = 9
	// maxWALPayload bounds one record's payload, matching the fabric
	// protocol's transfer limit: a size field above it is corruption, not
	// a big object.
	maxWALPayload = 16 << 20
)

// WAL decode errors. Both truncate recovery at the failing offset; they are
// distinguished so reports can tell a crash-torn tail (expected) from
// mid-log bit rot (alarming).
var (
	errWALTorn    = errors.New("remote: WAL record torn (log ends mid-record)")
	errWALCorrupt = errors.New("remote: WAL record corrupt (bad size or CRC)")
)

// ErrCrashed is returned by a DurableStore after an injected crash point
// has been reached: the process model is dead and every later mutation
// must fail un-acknowledged. The crash-injection harness in internal/bench
// drives this; production stores never see it.
var ErrCrashed = errors.New("remote: durable store crashed (injected crash point)")

// appendWALRecord appends the encoding of one record to dst.
func appendWALRecord(dst []byte, op byte, key uint64, payload []byte) []byte {
	size := uint32(walRecFixed + len(payload))
	var hdr [walHdrLen + walRecFixed]byte
	binary.BigEndian.PutUint32(hdr[4:8], size)
	hdr[8] = op
	binary.BigEndian.PutUint64(hdr[9:17], key)
	crc := crc32Update(crc32Update(0, hdr[4:]), payload)
	binary.BigEndian.PutUint32(hdr[0:4], crc)
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// crc32Update extends a running CRC32-C over p (the streaming form of
// Checksum, so a record's checksum can cover header and payload without
// concatenating them).
func crc32Update(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, castagnoli, p)
}

// decodeWALRecord parses the record at the head of b, returning its fields
// and total encoded length n. errWALTorn means b ends before the record
// does (a crash mid-append); errWALCorrupt means the record cannot be valid
// at any length (insane size, or a CRC mismatch over fully present bytes).
// The returned payload aliases b.
func decodeWALRecord(b []byte) (op byte, key uint64, payload []byte, n int, err error) {
	if len(b) < walHdrLen {
		return 0, 0, nil, 0, errWALTorn
	}
	crc := binary.BigEndian.Uint32(b[0:4])
	size := binary.BigEndian.Uint32(b[4:8])
	if size < walRecFixed || size > walRecFixed+maxWALPayload {
		return 0, 0, nil, 0, errWALCorrupt
	}
	n = walHdrLen + int(size)
	if len(b) < n {
		return 0, 0, nil, 0, errWALTorn
	}
	if crc32Update(0, b[4:n]) != crc {
		return 0, 0, nil, 0, errWALCorrupt
	}
	op = b[8]
	key = binary.BigEndian.Uint64(b[9:17])
	payload = b[walHdrLen+walRecFixed : n]
	return op, key, payload, n, nil
}

// FsyncPolicy selects when the WAL is flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs after every append: an acknowledged write is
	// durable before the ack. The safest and slowest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs every 32 appends: a crash can lose up to one
	// interval of acknowledged writes.
	FsyncInterval
	// FsyncNever leaves flushing to the OS: fastest, weakest.
	FsyncNever
)

// fsyncEvery is the appends between syncs under FsyncInterval: a constant,
// since no caller, experiment or test asks for another value.
const fsyncEvery = 32

// String implements fmt.Stringer.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	default:
		return fmt.Sprintf("FsyncPolicy(%d)", int(p))
	}
}

// ParseFsyncPolicy parses the -fsync flag values: always, interval, never.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	default:
		return FsyncAlways, fmt.Errorf("remote: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// wal is the open write-ahead log file plus its append-side state. All
// methods are called with the owning DurableStore's mutex held, so the
// fields need no locking of their own.
type wal struct {
	f         *os.File
	policy    FsyncPolicy
	sinceSync int   // appends since the last sync, whatever the policy
	size      int64 // current end offset of the file
	written   int64 // lifetime bytes appended (monotonic across resets)

	// fsyncs counts the syncs this log issued. sync is its only writer;
	// it is atomic because stats readers do not hold the owner's mutex.
	fsyncs atomic.Uint64

	// crashAfter is the injected crash point in lifetime-written bytes
	// (-1 = disabled): an append that would carry written past it writes
	// only the bytes up to the point — a deliberately torn record — and
	// fails with ErrCrashed.
	crashAfter int64

	buf []byte // encode scratch, reused across appends
}

// openWAL opens (creating if absent) the log at path and positions appends
// at its current end.
func openWAL(path string, policy FsyncPolicy) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("remote: open WAL: %w", err)
	}
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("remote: seek WAL: %w", err)
	}
	return &wal{f: f, policy: policy, size: end, written: end, crashAfter: -1}, nil
}

// append encodes and writes one record, honoring the fsync policy and the
// injected crash point. On ErrCrashed a torn prefix of the record may be on
// disk — exactly what a real crash mid-write leaves.
func (w *wal) append(op byte, key uint64, payload []byte) error {
	w.buf = appendWALRecord(w.buf[:0], op, key, payload)
	rec := w.buf
	if w.crashAfter >= 0 && w.written+int64(len(rec)) > w.crashAfter {
		if rem := w.crashAfter - w.written; rem > 0 {
			n, _ := w.f.Write(rec[:rem])
			w.size += int64(n)
			w.written += int64(n)
		}
		w.crashAfter = w.written // later appends crash with zero bytes
		return ErrCrashed
	}
	n, err := w.f.Write(rec)
	w.size += int64(n)
	w.written += int64(n)
	if err != nil {
		return fmt.Errorf("remote: WAL append: %w", err)
	}
	w.sinceSync++
	if w.policy == FsyncAlways || (w.policy == FsyncInterval && w.sinceSync >= fsyncEvery) {
		return w.sync()
	}
	return nil
}

// sync flushes the log to stable storage, counts the flush and resets the
// interval counter.
func (w *wal) sync() error {
	w.sinceSync = 0
	w.fsyncs.Add(1)
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("remote: WAL fsync: %w", err)
	}
	return nil
}

// reset truncates the log to empty after a compacting snapshot has made
// its contents redundant. Lifetime written-byte accounting is preserved.
func (w *wal) reset() error {
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("remote: WAL truncate: %w", err)
	}
	if _, err := w.f.Seek(0, 0); err != nil {
		return fmt.Errorf("remote: WAL rewind: %w", err)
	}
	w.size = 0
	return nil
}

// close releases the file without flushing — the abrupt half of a crash.
func (w *wal) close() error { return w.f.Close() }

// walReplay is the outcome of scanning a log during recovery.
type walReplay struct {
	records uint64 // valid records replayed
	bytes   uint64 // bytes consumed by valid records
	dropped uint64 // tail bytes discarded at the first invalid record
	torn    bool   // the tail ended mid-record (crash signature)
	corrupt bool   // the tail failed its CRC with all bytes present
}

// replayWAL scans the log bytes in b, invoking apply for every valid
// record in order, and stops at the first torn or corrupt record. The
// remainder is reported as dropped; the caller truncates the file there so
// the next boot starts from a clean log.
func replayWAL(b []byte, apply func(op byte, key uint64, payload []byte)) walReplay {
	var r walReplay
	off := 0
	for off < len(b) {
		op, key, payload, n, err := decodeWALRecord(b[off:])
		if err != nil {
			r.dropped = uint64(len(b) - off)
			r.torn = errors.Is(err, errWALTorn)
			r.corrupt = errors.Is(err, errWALCorrupt)
			break
		}
		apply(op, key, payload)
		off += n
		r.records++
	}
	r.bytes = uint64(off)
	return r
}
