package remote

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"trackfm/internal/obs"
)

// DurableConfig parameterizes a DurableStore.
type DurableConfig struct {
	// Dir is the data directory holding the WAL and snapshots. Created if
	// absent. Required.
	Dir string

	// Fsync selects when the WAL reaches stable storage (default
	// FsyncAlways: an acknowledged write is durable before the ack).
	Fsync FsyncPolicy

	// SnapshotEvery is the floor of the compaction trigger: a compacting
	// snapshot is taken once the WAL grows past the larger of this many
	// bytes and the live store's raw size, so a snapshot never writes more
	// payload than the log it replaces (default 4 MiB; negative disables
	// automatic compaction — Compact and Close still snapshot on demand).
	SnapshotEvery int64
}

func (c DurableConfig) withDefaults() DurableConfig {
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 4 << 20
	}
	return c
}

// RecoveryReport describes what Durable found and rebuilt.
type RecoveryReport struct {
	SnapshotLoaded  bool   // a valid snapshot seeded the store
	SnapshotCorrupt bool   // a snapshot existed but failed validation (recovery fell back to the WAL alone)
	SnapshotBlobs   int    // blobs loaded from the snapshot
	ReplayedRecords uint64 // valid WAL records replayed on top
	ReplayedBytes   uint64 // WAL bytes those records occupied
	TruncatedTail   uint64 // WAL tail bytes dropped at the first torn/corrupt record
	TornTail        bool   // the dropped tail ended mid-record (crash signature)
	CorruptTail     bool   // the dropped tail failed its CRC with all bytes present
	Generation      uint64 // this boot's restart generation (monotonic per data dir)
	DurationNs      uint64 // wall-clock recovery time
}

// String renders the report as one log line.
func (r RecoveryReport) String() string {
	return fmt.Sprintf("gen=%d snapshot=%v(blobs=%d,corrupt=%v) replayed=%d records/%d bytes truncatedTail=%d torn=%v in %.1fms",
		r.Generation, r.SnapshotLoaded, r.SnapshotBlobs, r.SnapshotCorrupt,
		r.ReplayedRecords, r.ReplayedBytes, r.TruncatedTail, r.TornTail,
		float64(r.DurationNs)/1e6)
}

// DurableStats counts durability events; all fields are atomic so a stats
// ticker or the obs registry can read them concurrently with writers.
type DurableStats struct {
	walAppends    atomic.Uint64  // records appended to the WAL
	walBytes      atomic.Uint64  // bytes appended to the WAL
	walFsyncs     *atomic.Uint64 // fsync calls issued by the WAL: its own count
	walAppendErrs atomic.Uint64  // appends that failed (op not acknowledged)
	snapshots     atomic.Uint64  // compacting snapshots written
	snapshotBytes atomic.Uint64  // bytes written across all snapshots
	snapshotFails atomic.Uint64  // snapshot attempts that failed (WAL kept)
}

// WALAppends reports records appended to the WAL.
func (s *DurableStats) WALAppends() uint64 { return s.walAppends.Load() }

// WALBytes reports bytes appended to the WAL.
func (s *DurableStats) WALBytes() uint64 { return s.walBytes.Load() }

// WALFsyncs reports fsync calls issued by the WAL.
func (s *DurableStats) WALFsyncs() uint64 { return s.walFsyncs.Load() }

// WALAppendErrs reports appends that failed; each one surfaced as an
// un-acknowledged operation.
func (s *DurableStats) WALAppendErrs() uint64 { return s.walAppendErrs.Load() }

// Snapshots reports compacting snapshots written.
func (s *DurableStats) Snapshots() uint64 { return s.snapshots.Load() }

// SnapshotBytes reports bytes written across all snapshots.
func (s *DurableStats) SnapshotBytes() uint64 { return s.snapshotBytes.Load() }

// SnapshotFails reports snapshot attempts that failed; the WAL is kept in
// full after each, so no durability is lost.
func (s *DurableStats) SnapshotFails() uint64 { return s.snapshotFails.Load() }

// String implements fmt.Stringer.
func (s *DurableStats) String() string {
	return fmt.Sprintf("walAppends=%d walBytes=%d walFsyncs=%d walAppendErrs=%d snapshots=%d snapshotBytes=%d snapshotFails=%d",
		s.WALAppends(), s.WALBytes(), s.WALFsyncs(), s.WALAppendErrs(),
		s.Snapshots(), s.SnapshotBytes(), s.SnapshotFails())
}

// DurableStore is a log and a snapshot around a Store, so its mutations
// survive process crashes: every Put, Delete, and Clear is appended to a
// CRC-framed write-ahead log before it is applied and acknowledged, and the
// log is periodically compacted into an atomically renamed snapshot. Durable
// recovers the state from disk — latest valid snapshot plus WAL replay,
// tolerating a torn or corrupt tail — and bumps a restart generation the
// fabric layer advertises to clients in its hello, with the durable bit
// that tells them the node came back with its data.
//
// Both files record raw payloads and the raw CRC32-C, never what the store
// holds at rest, so whether the wrapped store compresses is invisible on
// disk and may differ from one boot of a data directory to the next.
//
// Reads are served by the embedded Store exactly as before; mutations are
// serialized by the durability mutex so WAL order always equals apply
// order. The zero value is not ready; use Durable or OpenDurable.
type DurableStore struct {
	*Store

	cfg DurableConfig
	rec RecoveryReport

	dmu      sync.Mutex // serializes WAL append + apply + compaction
	wal      *wal
	failedAt int64 // WAL size at the last failed automatic snapshot; 0 once one lands
	gen      uint64
	crashed  atomic.Bool
	stats    DurableStats

	// recoveryHist holds the single recovery-duration observation (wall
	// nanoseconds) for the obs registry.
	recoveryHist *obs.Histogram
}

// recoveryBounds buckets recovery durations from 100µs to 10s.
var recoveryBounds = []uint64{
	100_000, 1_000_000, 10_000_000, 100_000_000, 1_000_000_000, 10_000_000_000,
}

// OpenDurable is Durable around a new plain store.
func OpenDurable(cfg DurableConfig) (*DurableStore, error) { return Durable(NewStore(), cfg) }

// Durable opens (creating if needed) the data directory cfg.Dir around mem
// — empty, and not yet shared — and recovers its state into it: load the
// latest valid snapshot, replay the WAL on top of it, truncate any torn or
// corrupt tail, and durably bump the restart generation. The report of what
// was recovered is available via Recovery.
func Durable(mem *Store, cfg DurableConfig) (*DurableStore, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("remote: DurableConfig.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("remote: create data dir: %w", err)
	}
	start := time.Now()
	ds := &DurableStore{
		Store:        mem,
		cfg:          cfg,
		recoveryHist: obs.NewHistogram(recoveryBounds),
	}

	// Seed from the latest valid snapshot, if any.
	blobs, snapGen, err := loadSnapshot(cfg.Dir, mem)
	switch {
	case err == nil:
		ds.rec.SnapshotLoaded = true
		ds.rec.SnapshotBlobs = blobs
		ds.gen = snapGen
	case os.IsNotExist(err):
		// First boot: nothing to load.
	default:
		// A snapshot exists but is damaged. The WAL is replayed from
		// empty; anything compacted out of it before the damage is gone,
		// and the report says so instead of hiding it.
		ds.rec.SnapshotCorrupt = true
	}

	// Replay the WAL on top, truncating at the first invalid record.
	walPath := filepath.Join(cfg.Dir, walFile)
	raw, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("remote: read WAL: %w", err)
	}
	rep := replayWAL(raw, ds.apply)
	ds.rec.ReplayedRecords = rep.records
	ds.rec.ReplayedBytes = rep.bytes
	ds.rec.TruncatedTail = rep.dropped
	ds.rec.TornTail = rep.torn
	ds.rec.CorruptTail = rep.corrupt
	if rep.dropped > 0 {
		if err := os.Truncate(walPath, int64(rep.bytes)); err != nil {
			return nil, fmt.Errorf("remote: truncate torn WAL tail: %w", err)
		}
	}

	w, err := openWAL(walPath, cfg.Fsync)
	if err != nil {
		return nil, err
	}
	ds.wal = w
	ds.stats.walFsyncs = &w.fsyncs

	// Durably bump the restart generation: peers use it to tell "same
	// node, recovered" from "fresh node" in the hello exchange. The bump
	// record is always synced, whatever the policy — a generation that
	// could repeat after a crash would defeat restart detection.
	ds.gen++
	err = w.append(walOpGen, ds.gen, nil)
	if err == nil && w.sinceSync > 0 {
		err = w.sync()
	}
	if err != nil {
		w.close()
		return nil, err
	}
	ds.stats.walAppends.Add(1)

	ds.rec.Generation = ds.gen
	ds.rec.DurationNs = uint64(time.Since(start).Nanoseconds())
	ds.recoveryHist.Observe(ds.rec.DurationNs)
	return ds, nil
}

// apply performs one logged mutation on the in-memory store: the one place
// an opcode becomes a store call, for recovery's replay and for a live
// mutation whose record has just been appended. Unknown ops decode fine
// (their CRC verified) and are skipped: a newer writer's record must not
// wedge an older reader.
func (ds *DurableStore) apply(op byte, key uint64, payload []byte) {
	switch op {
	case walOpPut:
		ds.Store.Put(key, payload)
	case walOpDelete:
		ds.Store.Delete(key)
	case walOpClear:
		ds.Store.Clear()
	case walOpGen:
		ds.gen = max(ds.gen, key)
	}
}

// Recovery reports what Durable found and rebuilt.
func (ds *DurableStore) Recovery() RecoveryReport { return ds.rec }

// Generation reports this boot's restart generation: monotonically
// increasing per data directory, durably bumped on every open.
func (ds *DurableStore) Generation() uint64 { return ds.gen }

// DurableStats exposes the durability counters.
func (ds *DurableStore) DurableStats() *DurableStats { return &ds.stats }

// WALSize reports the current WAL file size in bytes.
func (ds *DurableStore) WALSize() int64 {
	ds.dmu.Lock()
	defer ds.dmu.Unlock()
	return ds.wal.size
}

// WALWritten reports lifetime bytes appended to the WAL (monotonic across
// compactions); the crash-injection harness draws crash points against it.
func (ds *DurableStore) WALWritten() int64 {
	ds.dmu.Lock()
	defer ds.dmu.Unlock()
	return ds.wal.written
}

// mutate logs one mutation, then applies it: on error nothing was applied
// and the operation must not be acknowledged to any client. Put and Delete
// then compact an outgrown log; Clear leaves that to the write after it.
func (ds *DurableStore) mutate(op byte, key uint64, payload []byte) error {
	if ds.crashed.Load() {
		return ErrCrashed
	}
	ds.dmu.Lock()
	defer ds.dmu.Unlock()
	before := ds.wal.written
	err := ds.wal.append(op, key, payload)
	ds.stats.walBytes.Add(uint64(ds.wal.written - before))
	switch {
	case err == nil:
		ds.stats.walAppends.Add(1)
	case err == ErrCrashed:
		ds.crashed.Store(true)
		return err
	default:
		ds.stats.walAppendErrs.Add(1)
		return err
	}
	ds.apply(op, key, payload)
	if op != walOpClear {
		ds.maybeCompactLocked()
	}
	return nil
}

// Put logs then stores src under key.
func (ds *DurableStore) Put(key uint64, src []byte) error { return ds.mutate(walOpPut, key, src) }

// Delete logs then removes key.
func (ds *DurableStore) Delete(key uint64) error { return ds.mutate(walOpDelete, key, nil) }

// Clear logs then drops every blob (and, via the embedded Store, resets
// the integrity counters — see Store.Clear).
func (ds *DurableStore) Clear() error { return ds.mutate(walOpClear, 0, nil) }

// Sync forces the WAL to stable storage, establishing a durable point
// under the interval and never policies.
func (ds *DurableStore) Sync() error {
	ds.dmu.Lock()
	defer ds.dmu.Unlock()
	return ds.wal.sync()
}

// maybeCompactLocked snapshots and truncates the WAL once it outgrows
// max(SnapshotEvery, the store's raw bytes): a snapshot then writes no
// more payload than the log it replaces, and the log on disk stays within
// the larger of the floor and the live data, whatever the store's size. A
// failed snapshot keeps the WAL in full — durability is never traded for
// compaction — and is counted; the next attempt waits until the WAL has
// grown by another trigger's worth, so a full or failing disk is not
// handed a whole store image on every mutation.
func (ds *DurableStore) maybeCompactLocked() {
	if ds.cfg.SnapshotEvery <= 0 {
		return
	}
	trigger := max(ds.cfg.SnapshotEvery, int64(ds.Store.RawBytes()))
	if ds.wal.size-ds.failedAt < trigger {
		return
	}
	if err := ds.compactLocked(); err != nil {
		ds.stats.snapshotFails.Add(1)
		ds.failedAt = ds.wal.size
	}
}

// Compact writes a snapshot of the current state and truncates the WAL
// behind it.
func (ds *DurableStore) Compact() error {
	if ds.crashed.Load() {
		return ErrCrashed
	}
	ds.dmu.Lock()
	defer ds.dmu.Unlock()
	return ds.compactLocked()
}

// compactLocked does the snapshot + WAL reset under ds.dmu. Mutators all
// hold ds.dmu, so the store is stable for the duration.
func (ds *DurableStore) compactLocked() error {
	n, err := writeSnapshot(ds.cfg.Dir, ds.gen, ds.Store)
	if err != nil {
		return err
	}
	ds.stats.snapshots.Add(1)
	ds.stats.snapshotBytes.Add(uint64(n))
	// The snapshot covers every applied record; the WAL restarts empty. A
	// crash before the reset leaves stale records that replay harmlessly
	// (log order ends at the snapshot state).
	if err := ds.wal.reset(); err != nil {
		return err
	}
	ds.failedAt = 0
	return nil
}

// Close gracefully shuts the store down: final compacting snapshot, WAL
// sync, file close. After Close every mutation fails.
func (ds *DurableStore) Close() error {
	if ds.crashed.Swap(true) {
		return nil // crashed or already closed: nothing graceful left to do
	}
	ds.dmu.Lock()
	defer ds.dmu.Unlock()
	err := ds.compactLocked()
	if serr := ds.wal.sync(); err == nil {
		err = serr
	}
	if cerr := ds.wal.close(); err == nil {
		err = cerr
	}
	return err
}

// Crash abandons the store abruptly — no snapshot, no sync, files closed
// mid-state — modelling a process kill. The crash-injection harness and
// tests use it; production code calls Close.
func (ds *DurableStore) Crash() {
	if ds.crashed.Swap(true) {
		return
	}
	ds.dmu.Lock()
	defer ds.dmu.Unlock()
	ds.wal.close()
}

// SetCrashPoint arms the injected crash: once lifetime WAL bytes reach n,
// the in-flight append is torn mid-record and every later mutation fails
// with ErrCrashed. A negative n disarms.
func (ds *DurableStore) SetCrashPoint(n int64) {
	ds.dmu.Lock()
	defer ds.dmu.Unlock()
	ds.wal.crashAfter = n
}
