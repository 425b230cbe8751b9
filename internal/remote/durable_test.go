package remote

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"trackfm/internal/mem/bufpool"
)

func openTestDurable(t *testing.T, dir string, cfg DurableConfig) *DurableStore {
	t.Helper()
	cfg.Dir = dir
	ds, err := OpenDurable(cfg)
	if err != nil {
		t.Fatalf("OpenDurable(%s): %v", dir, err)
	}
	return ds
}

func mustDurableGet(t *testing.T, ds *DurableStore, key uint64, want []byte) {
	t.Helper()
	dst := make([]byte, len(want))
	found, err := ds.Get(key, dst)
	if err != nil || !found {
		t.Fatalf("Get(%d): found=%v err=%v", key, found, err)
	}
	if !bytes.Equal(dst, want) {
		t.Fatalf("Get(%d) = %v, want %v", key, dst, want)
	}
}

func TestDurableRecoverFromWAL(t *testing.T) {
	dir := t.TempDir()
	ds := openTestDurable(t, dir, DurableConfig{Fsync: FsyncNever, SnapshotEvery: -1})
	if err := ds.Put(1, []byte("one")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := ds.Put(2, []byte("two")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := ds.Put(1, []byte("ONE")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := ds.Delete(2); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	ds.Crash() // no snapshot, recovery is WAL-only

	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	rep := ds2.Recovery()
	if rep.SnapshotLoaded {
		t.Fatalf("recovery loaded a snapshot that was never written: %+v", rep)
	}
	if rep.ReplayedRecords == 0 || rep.TruncatedTail != 0 {
		t.Fatalf("recovery replayed=%d truncated=%d", rep.ReplayedRecords, rep.TruncatedTail)
	}
	if ds2.Len() != 1 {
		t.Fatalf("recovered %d blobs, want 1", ds2.Len())
	}
	mustDurableGet(t, ds2, 1, []byte("ONE"))
	ds2.Close()
}

func TestDurableRecoverFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	ds := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	for k := uint64(0); k < 8; k++ {
		if err := ds.Put(k, []byte{byte(k), byte(k + 1)}); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := ds.WALSize(); got != 0 {
		t.Fatalf("WAL size after Compact = %d, want 0", got)
	}
	// Post-snapshot mutations land in the fresh WAL and must replay on top.
	if err := ds.Put(3, []byte("replaced")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := ds.Delete(7); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	ds.Crash()

	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	rep := ds2.Recovery()
	if !rep.SnapshotLoaded || rep.SnapshotBlobs != 8 {
		t.Fatalf("recovery: %+v, want snapshot with 8 blobs", rep)
	}
	if ds2.Len() != 7 {
		t.Fatalf("recovered %d blobs, want 7", ds2.Len())
	}
	mustDurableGet(t, ds2, 3, []byte("replaced"))
	if found, err := ds2.Get(7, make([]byte, 2)); err != nil || found {
		t.Fatalf("deleted key recovered: found=%v err=%v", found, err)
	}
	mustDurableGet(t, ds2, 5, []byte{5, 6})
	ds2.Close()
}

func TestDurableRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	ds := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	if err := ds.Put(1, []byte("acknowledged")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Arm the crash point mid-way through the next record: the append
	// tears exactly like a process kill mid-write.
	ds.SetCrashPoint(ds.WALWritten() + 10)
	if err := ds.Put(2, []byte("never acked")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put past crash point: err=%v, want ErrCrashed", err)
	}
	if err := ds.Put(3, []byte("after crash")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put after crash: err=%v, want ErrCrashed", err)
	}
	ds.Crash()

	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	rep := ds2.Recovery()
	if !rep.TornTail || rep.TruncatedTail == 0 {
		t.Fatalf("recovery did not report a torn tail: %+v", rep)
	}
	if ds2.Len() != 1 {
		t.Fatalf("recovered %d blobs, want only the acknowledged one", ds2.Len())
	}
	mustDurableGet(t, ds2, 1, []byte("acknowledged"))
	// The tail was physically truncated: a third boot sees a clean log.
	ds2.Crash()
	ds3 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	if rep := ds3.Recovery(); rep.TruncatedTail != 0 {
		t.Fatalf("second recovery still dropped %d bytes", rep.TruncatedTail)
	}
	ds3.Close()
}

func TestDurableRecoveryCorruptSnapshotFallsBackToWAL(t *testing.T) {
	dir := t.TempDir()
	ds := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	if err := ds.Put(1, []byte("logged")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ds.Crash()
	// Damage a fake snapshot: recovery must report it and replay the WAL.
	if err := os.WriteFile(filepath.Join(dir, snapshotFile), []byte("not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	rep := ds2.Recovery()
	if !rep.SnapshotCorrupt || rep.SnapshotLoaded {
		t.Fatalf("recovery: %+v, want SnapshotCorrupt", rep)
	}
	mustDurableGet(t, ds2, 1, []byte("logged"))
	ds2.Close()
}

func TestDurableGenerationMonotonic(t *testing.T) {
	dir := t.TempDir()
	var prev uint64
	for boot := 0; boot < 4; boot++ {
		ds := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
		gen := ds.Generation()
		if gen <= prev {
			t.Fatalf("boot %d: generation %d not above previous %d", boot, gen, prev)
		}
		prev = gen
		if boot%2 == 0 {
			ds.Crash() // generations must survive even abrupt exits
		} else {
			ds.Close()
		}
	}
}

func TestDurableAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny snapshot threshold: a few puts must trigger compaction.
	ds := openTestDurable(t, dir, DurableConfig{SnapshotEvery: 256})
	payload := bytes.Repeat([]byte{0x5A}, 100)
	for k := uint64(0); k < 10; k++ {
		if err := ds.Put(k, payload); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if ds.DurableStats().Snapshots() == 0 {
		t.Fatalf("no automatic compaction despite tiny threshold (wal size %d)", ds.WALSize())
	}
	ds.Crash()
	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: 256})
	if ds2.Len() != 10 {
		t.Fatalf("recovered %d blobs after compaction, want 10", ds2.Len())
	}
	mustDurableGet(t, ds2, 9, payload)
	ds2.Close()
}

// Once live bytes pass the SnapshotEvery floor, the trigger follows them: a
// snapshot waits for a live store's worth of log, so snapshots cost no more
// bytes than the log they replace and the log on disk stays within the live
// data, however small the floor.
func TestDurableCompactionTracksLiveBytes(t *testing.T) {
	const keys, size, floor, total = 64, 4 << 10, 16 << 10, 2 << 20
	dir := t.TempDir()
	ds := openTestDurable(t, dir, DurableConfig{Fsync: FsyncNever, SnapshotEvery: floor})
	oracle := map[uint64][]byte{}
	for i := 0; i < total/size; i++ {
		key := uint64(i % keys)
		payload := bytes.Repeat([]byte{byte(i)}, size)
		if err := ds.Put(key, payload); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		oracle[key] = payload
		if bound := max(floor, int64(ds.RawBytes())); ds.WALSize() >= bound {
			t.Fatalf("put %d: WAL holds %d bytes, the trigger is %d", i, ds.WALSize(), bound)
		}
	}
	st := ds.DurableStats()
	if st.Snapshots() == 0 || st.Snapshots() > 9 {
		t.Fatalf("%d snapshots for %d MiB written over %d KiB live, want 1..9", st.Snapshots(), total>>20, keys*size>>10)
	}
	if ratio := float64(st.SnapshotBytes()) / float64(st.WALBytes()); ratio > 1.1 {
		t.Fatalf("snapshots wrote %d bytes for %d of WAL (%.2f per WAL byte), want <= 1.1", st.SnapshotBytes(), st.WALBytes(), ratio)
	}
	ds.Crash()
	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: floor})
	mustHoldExactly(t, ds2, oracle)
	ds2.Close()
}

// A snapshot that fails keeps the whole WAL and is retried only once the
// log has grown by another trigger's worth, not on every later mutation.
// A directory where the snapshot's temp file goes makes the create fail
// with EISDIR, whoever runs the test.
func TestDurableFailedCompactionBacksOff(t *testing.T) {
	const floor, size, keys, past = 4 << 10, 100, 8, 10
	dir := t.TempDir()
	blocker := filepath.Join(dir, snapshotTmp)
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	ds := openTestDurable(t, dir, DurableConfig{Fsync: FsyncNever, SnapshotEvery: floor})
	oracle := map[uint64][]byte{}
	n := 0
	put := func() {
		t.Helper()
		key := uint64(n % keys)
		payload := bytes.Repeat([]byte{byte(n)}, size)
		if err := ds.Put(key, payload); err != nil {
			t.Fatalf("Put %d: %v", n, err)
		}
		oracle[key] = payload
		n++
	}
	for ds.DurableStats().SnapshotFails() == 0 {
		put()
	}
	for i := 0; i < past; i++ {
		put()
	}
	st := ds.DurableStats()
	if st.SnapshotFails() != 1 || st.Snapshots() != 0 {
		t.Fatalf("%d puts past the trigger: %d failed snapshots, %d written; want 1 failed, none written",
			past+1, st.SnapshotFails(), st.Snapshots())
	}

	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	for start := ds.WALWritten(); ds.WALWritten()-start < floor; {
		put()
	}
	if st.Snapshots() != 1 || st.SnapshotFails() != 1 {
		t.Fatalf("one trigger's worth of WAL after the disk recovered: %d snapshots, %d failed; want 1 and 1",
			st.Snapshots(), st.SnapshotFails())
	}
	ds.Crash()
	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: floor})
	mustHoldExactly(t, ds2, oracle)
	ds2.Close()
}

func TestDurableCloseSnapshotsEverything(t *testing.T) {
	dir := t.TempDir()
	ds := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	if err := ds.Put(1, []byte("kept")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := ds.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := ds.Put(2, []byte("late")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("Put after Close: err=%v, want ErrCrashed", err)
	}
	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	rep := ds2.Recovery()
	if !rep.SnapshotLoaded || rep.SnapshotBlobs != 1 {
		t.Fatalf("recovery after graceful Close: %+v, want snapshot-only", rep)
	}
	mustDurableGet(t, ds2, 1, []byte("kept"))
	ds2.Close()
}

func TestDurableClearIsLogged(t *testing.T) {
	dir := t.TempDir()
	ds := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	if err := ds.Put(1, []byte("doomed")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := ds.Clear(); err != nil {
		t.Fatalf("Clear: %v", err)
	}
	if err := ds.Put(2, []byte("survivor")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ds.Crash()
	ds2 := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	if ds2.Len() != 1 {
		t.Fatalf("recovered %d blobs, want 1 (Clear replayed)", ds2.Len())
	}
	mustDurableGet(t, ds2, 2, []byte("survivor"))
	ds2.Close()
}

// composeWorkload drives a seeded mix of puts (half compressible, half
// not), deletes and rare clears into ds until the schedule ends or the
// store crashes, keeping in oracle exactly what was acknowledged. It is a
// pure function of the seed, so every run of one seed appends the same
// records.
func composeWorkload(ds *DurableStore, seed int64, oracle map[uint64][]byte) {
	rng := rand.New(rand.NewSource(seed))
	for op := 0; op < 240; op++ {
		key := uint64(rng.Intn(48))
		switch roll := rng.Intn(100); {
		case roll < 70:
			payload := make([]byte, 16+rng.Intn(500))
			if rng.Intn(2) == 0 {
				rng.Read(payload)
			} else {
				for i := range payload {
					payload[i] = byte(key) + byte(i%7)
				}
			}
			if ds.Put(key, payload) != nil {
				return
			}
			oracle[key] = payload
		case roll < 96:
			if ds.Delete(key) != nil {
				return
			}
			delete(oracle, key)
		default:
			if ds.Clear() != nil {
				return
			}
			clear(oracle)
		}
	}
}

// mustHoldExactly fails unless ds holds oracle's keys with oracle's bytes
// and nothing else.
func mustHoldExactly(t *testing.T, ds *DurableStore, oracle map[uint64][]byte) {
	t.Helper()
	if ds.Len() != len(oracle) {
		t.Fatalf("store holds %d blobs, the acked-write oracle %d", ds.Len(), len(oracle))
	}
	for key, want := range oracle {
		mustDurableGet(t, ds, key, want)
	}
}

// Compression is how the wrapped store holds bytes in memory; the log and
// the snapshot record raw payloads. So a compressing durable node must
// write the very files a plain one writes, survive a kill at any WAL
// offset, and recover under either kind of store — the crossing fmserver
// used to refuse.
func TestDurableComposesWithCompression(t *testing.T) {
	const seed = 17
	cfg := DurableConfig{Fsync: FsyncNever, SnapshotEvery: 4 << 10} // several compactions per run
	open := func(dir string, compress bool) *DurableStore {
		t.Helper()
		mem := NewStore()
		if compress {
			mem = NewCompressedStore()
		}
		cfg.Dir = dir
		ds, err := Durable(mem, cfg)
		if err != nil {
			t.Fatalf("Durable(%s, compress=%v): %v", dir, compress, err)
		}
		return ds
	}

	// The whole schedule under each store, abandoned without a final
	// snapshot: the same log, the same snapshot, byte for byte.
	var dirs [2]string
	var walTotal int64
	for i, compress := range []bool{false, true} {
		dirs[i] = t.TempDir()
		ds := open(dirs[i], compress)
		composeWorkload(ds, seed, map[uint64][]byte{})
		if compress && ds.Bytes() >= ds.RawBytes() {
			t.Fatalf("the compressing run held %d bytes at rest for %d raw: nothing was compressed", ds.Bytes(), ds.RawBytes())
		}
		if ds.DurableStats().Snapshots() < 2 {
			t.Fatalf("only %d compactions in the run; the schedule should cross several", ds.DurableStats().Snapshots())
		}
		walTotal = ds.WALWritten()
		ds.Crash()
	}
	for _, name := range []string{walFile, snapshotFile} {
		plain, err := os.ReadFile(filepath.Join(dirs[0], name))
		if err != nil {
			t.Fatal(err)
		}
		compressed, err := os.ReadFile(filepath.Join(dirs[1], name))
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) == 0 || !bytes.Equal(plain, compressed) {
			t.Fatalf("%s: %d bytes from the plain run, %d from the compressing run, not identical", name, len(plain), len(compressed))
		}
	}

	// Kill the compressing node at seeded lifetime-WAL offsets — most land
	// mid-record, some inside a compaction window — and recover it
	// alternately plain and compressed.
	offsets := rand.New(rand.NewSource(seed * 7919))
	for i := 0; i < 24; i++ {
		off := 1 + offsets.Int63n(walTotal-1)
		dir := t.TempDir()
		ds := open(dir, true)
		ds.SetCrashPoint(off)
		oracle := map[uint64][]byte{}
		composeWorkload(ds, seed, oracle)
		if err := ds.Put(1<<32, []byte("late")); !errors.Is(err, ErrCrashed) {
			t.Fatalf("offset %d of %d: the schedule ended without crashing (Put err=%v)", off, walTotal, err)
		}
		ds.Crash()

		rec := open(dir, i%2 == 0)
		mustHoldExactly(t, rec, oracle)
		// And back: a graceful close under this store, a reopen under the
		// other kind, from the snapshot alone.
		if err := rec.Close(); err != nil {
			t.Fatalf("offset %d: Close: %v", off, err)
		}
		back := open(dir, i%2 != 0)
		if rep := back.Recovery(); !rep.SnapshotLoaded || rep.ReplayedRecords != 0 {
			t.Fatalf("offset %d: reopen after a graceful close: %+v, want the snapshot alone", off, rep)
		}
		mustHoldExactly(t, back, oracle)
		back.Crash()
	}
}

// A snapshot is applied only once every entry has checked out: one flipped
// payload byte deep in the file leaves the store empty for the WAL replay
// that follows — nothing half-loaded, no buffer lease taken and lost — and
// recovery falls back to the log.
func TestDurableBadSnapshotEntryLeavesStoreEmpty(t *testing.T) {
	const blobs, size, bad = 9, 64, 5
	dir := t.TempDir()
	ds := openTestDurable(t, dir, DurableConfig{SnapshotEvery: -1})
	for k := uint64(0); k < blobs; k++ {
		if err := ds.Put(k, bytes.Repeat([]byte{byte(k)}, size)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := ds.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := ds.Put(100, []byte("logged after the snapshot")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	ds.Crash()

	path := filepath.Join(dir, snapshotFile)
	img, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img[24+bad*(16+size)+16+size/2] ^= 0xFF // header, whole entries before it, its own header, mid-payload
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}

	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	for _, s := range []*Store{NewStore(), NewCompressedStore()} {
		out := bufpool.Outstanding()
		if _, _, err := loadSnapshot(dir, s); !errors.Is(err, errSnapshotInvalid) {
			t.Fatalf("loadSnapshot: err=%v, want errSnapshotInvalid", err)
		}
		if s.Len() != 0 || s.Bytes() != 0 {
			t.Fatalf("rejected snapshot left %d blobs, %d bytes in the store", s.Len(), s.Bytes())
		}
		if got := bufpool.Outstanding(); got != out {
			t.Fatalf("rejected snapshot left %d buffer leases out", got-out)
		}
	}

	ds2, err := Durable(NewCompressedStore(), DurableConfig{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("Durable: %v", err)
	}
	defer ds2.Close()
	if rep := ds2.Recovery(); !rep.SnapshotCorrupt || rep.SnapshotLoaded {
		t.Fatalf("recovery: %+v, want SnapshotCorrupt", rep)
	}
	mustHoldExactly(t, ds2, map[uint64][]byte{100: []byte("logged after the snapshot")})
}

// The WAL counts the fsyncs it issues. Every boot's generation bump is
// synced exactly once whatever the policy; after that N appends cost N
// syncs, one per 32, or none — and an explicit Sync and Close's final one
// are counted like the rest.
func TestWALFsyncPolicies(t *testing.T) {
	const n = 70
	for _, row := range []struct {
		flag   string
		policy FsyncPolicy
		want   uint64
	}{
		{"always", FsyncAlways, n + 1},
		{"interval", FsyncInterval, 1 + n/32},
		{"never", FsyncNever, 1},
	} {
		t.Run(row.flag, func(t *testing.T) {
			policy, err := ParseFsyncPolicy(row.flag)
			if err != nil || policy != row.policy || policy.String() != row.flag {
				t.Fatalf("ParseFsyncPolicy(%q) = %v (%q), %v", row.flag, policy, policy, err)
			}
			ds := openTestDurable(t, t.TempDir(), DurableConfig{Fsync: policy, SnapshotEvery: -1})
			fsyncs := ds.DurableStats().WALFsyncs
			for i := uint64(0); i < n; i++ {
				var err error
				switch i % 10 {
				case 8:
					err = ds.Delete(i - 1)
				case 9:
					err = ds.Clear()
				default:
					err = ds.Put(i, []byte("payload"))
				}
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			if got := fsyncs(); got != row.want {
				t.Fatalf("WALFsyncs = %d after the generation bump and %d appends, want %d", got, n, row.want)
			}
			if err := ds.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := ds.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if got := fsyncs(); got != row.want+2 {
				t.Fatalf("WALFsyncs = %d after Sync and Close, want %d", got, row.want+2)
			}
		})
	}
	if p, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatalf("ParseFsyncPolicy(\"sometimes\") = %v, want an error", p)
	}
}

// BenchmarkDurableCompact times one compacting snapshot of 8192 4 KiB
// blobs (the store fmbench's miss-write-durable builds): the walk, the
// writes, the fsync and the rename. Its MB/s is the snapshot's write rate.
func BenchmarkDurableCompact(b *testing.B) {
	const blobs, size = 8192, 4096
	ds, err := OpenDurable(DurableConfig{Dir: b.TempDir(), Fsync: FsyncNever, SnapshotEvery: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Crash()
	payload := make([]byte, size)
	for k := uint64(0); k < blobs; k++ {
		for i := range payload {
			payload[i] = byte(k + uint64(i))
		}
		if err := ds.Put(k, payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(blobs * size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ds.Compact(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDurableReopen times recovery alone: a data dir whose snapshot
// holds 8192 4 KiB blobs (what fmbench's miss-write-durable leaves behind)
// is reopened, loading and validating the snapshot and applying it to an
// empty store. It reports the store's own RecoveryReport time.
func BenchmarkDurableReopen(b *testing.B) {
	const blobs = 8192
	dir := b.TempDir()
	cfg := DurableConfig{Dir: dir, Fsync: FsyncNever}
	ds, err := OpenDurable(cfg)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 4096)
	for k := uint64(0); k < blobs; k++ {
		for i := range payload {
			payload[i] = byte(k + uint64(i))
		}
		if err := ds.Put(k, payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := ds.Close(); err != nil { // writes the snapshot
		b.Fatal(err)
	}
	var recoveryNs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := OpenDurable(cfg)
		if err != nil {
			b.Fatal(err)
		}
		rec := ds.Recovery()
		if rec.SnapshotBlobs != blobs {
			b.Fatalf("recovered %d blobs, want %d", rec.SnapshotBlobs, blobs)
		}
		recoveryNs += rec.DurationNs
		b.StopTimer()
		ds.Crash() // no final snapshot: every iteration reopens the same files
		ds.Store.Clear()
		b.StartTimer()
	}
	b.ReportMetric(float64(recoveryNs)/float64(b.N)/1e6, "recovery-ms")
}
