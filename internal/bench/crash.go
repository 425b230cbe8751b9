package bench

import (
	"bytes"
	"fmt"
	"os"

	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// This file regenerates the crash-consistency soak (extension): the
// acceptance harness for the durability layer in internal/remote. A
// seeded mixed workload (puts, deletes, occasional clears) runs against a
// DurableStore, and the process model is killed at randomized offsets in
// the write-ahead log — including offsets that land mid-record, tearing
// the in-flight append exactly like a real kill mid-write. After each
// crash the store is recovered from disk and compared against an
// in-memory oracle that tracks ONLY acknowledged operations. The
// durability contract under test:
//
//   - zero acked-write loss: every operation the store acknowledged
//     before the crash is present (byte-identical) after recovery;
//   - no resurrection: nothing beyond the acknowledged state appears
//     (the un-acked op being written when the crash hit is gone);
//   - the torn tail is detected, reported, and truncated — never
//     replayed as data.
//
// The crash model is a process kill (SIGKILL): bytes the process wrote
// survive in the page cache, so the workload runs under FsyncNever and
// the guarantee holds for every policy. (FsyncAlways additionally covers
// power loss, which no in-process harness can inject; the policy's fsync
// counts are exercised by the unit tests.) Crash offsets are drawn
// against lifetime WAL bytes, which are monotonic across compactions, so
// crash points also land inside snapshot-compaction windows.
//
// Recovery time is reported as a deterministic model (cycles charged per
// replayed byte and record, converted at the simulated 1 GHz clock) so
// the table reproduces bit-identically; wall-clock recovery latency on a
// live node is observed by the trackfm_recovery_duration_ns histogram.

const (
	crashSeeds      = 4   // independent workload schedules
	crashesPerSeed  = 26  // crash offsets drawn per schedule (4*26 = 104 >= 100)
	crashOps        = 300 // workload length of one schedule
	crashKeyspace   = 128
	crashMinPayload = 16
	crashMaxPayload = 512
	// crashSnapshotEvery keeps compaction in play: several snapshots land
	// inside each schedule, so crash offsets hit post-compaction WALs too.
	// The schedule's live bytes stay under this floor, so the trigger's
	// other term (the store's raw size) never engages here.
	crashSnapshotEvery = 16 << 10
)

// Modeled recovery cost: a fixed open cost plus per-byte and per-record
// replay work, at 1 cycle/ns.
const (
	crashRecoverBaseCycles = 20_000
	crashRecoverPerByte    = 2
	crashRecoverPerRecord  = 120
)

// crashWorkload replays the seeded schedule against ds, maintaining the
// acked-only oracle, until the schedule ends or the store crashes.
// The schedule is a pure function of the seed: the baseline run (no crash
// point) and every crash run see identical operations, so a crash offset
// drawn against the baseline's WAL always lands inside a crash run.
func crashWorkload(ds *remote.DurableStore, seed uint64, oracle map[uint64][]byte) (acked int) {
	rng := sim.NewRNG(seed)
	for op := 0; op < crashOps; op++ {
		roll := rng.Intn(100)
		switch {
		case roll < 70: // put
			key := uint64(rng.Intn(crashKeyspace))
			size := crashMinPayload + rng.Intn(crashMaxPayload-crashMinPayload+1)
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(rng.Intn(256))
			}
			if err := ds.Put(key, payload); err != nil {
				return acked
			}
			oracle[key] = payload
		case roll < 95: // delete
			key := uint64(rng.Intn(crashKeyspace))
			if err := ds.Delete(key); err != nil {
				return acked
			}
			delete(oracle, key)
		default: // rare full clear (experiment-phase reset)
			if err := ds.Clear(); err != nil {
				return acked
			}
			for k := range oracle {
				delete(oracle, k)
			}
		}
		acked++
	}
	return acked
}

// crashSeedResult accumulates one schedule's crash outcomes.
type crashSeedResult struct {
	crashes       int
	tornTails     int
	acked         uint64 // acknowledged ops across all crash runs
	lost          int    // acked keys absent or extra after recovery
	mismatched    int    // acked keys present but with wrong bytes
	replayedRecs  uint64
	replayedBytes uint64
	truncated     uint64
	recoverCycles uint64 // modeled, summed across recoveries
}

// runCrashPoint runs one schedule with a crash armed at walOffset bytes of
// lifetime WAL, recovers, and verifies the recovered state equals the
// acked-only oracle.
func runCrashPoint(seed uint64, walOffset int64, res *crashSeedResult) {
	dir, err := os.MkdirTemp("", "trackfm-crash-")
	if err != nil {
		panic(fmt.Sprintf("bench: crash tempdir: %v", err))
	}
	defer os.RemoveAll(dir)

	ds, err := remote.OpenDurable(remote.DurableConfig{
		Dir:           dir,
		Fsync:         remote.FsyncNever,
		SnapshotEvery: crashSnapshotEvery,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: crash open: %v", err))
	}
	ds.SetCrashPoint(walOffset)
	oracle := make(map[uint64][]byte)
	acked := crashWorkload(ds, seed, oracle)
	ds.Crash()
	res.crashes++
	res.acked += uint64(acked)

	rec, err := remote.OpenDurable(remote.DurableConfig{
		Dir:           dir,
		Fsync:         remote.FsyncNever,
		SnapshotEvery: crashSnapshotEvery,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: crash recover: %v", err))
	}
	defer rec.Crash() // release files; no need for a graceful close

	rep := rec.Recovery()
	if rep.TornTail {
		res.tornTails++
	}
	res.replayedRecs += rep.ReplayedRecords
	res.replayedBytes += rep.ReplayedBytes
	res.truncated += rep.TruncatedTail
	res.recoverCycles += crashRecoverBaseCycles +
		crashRecoverPerByte*rep.ReplayedBytes +
		crashRecoverPerRecord*rep.ReplayedRecords

	// Byte-identical equality with the acked-only oracle: every acked key
	// present with its exact payload, and nothing extra (Len matches, so
	// un-acked writes did not survive as ghosts).
	if rec.Len() != len(oracle) {
		res.lost++
	}
	for key, want := range oracle {
		got := make([]byte, len(want))
		found, err := rec.Get(key, got)
		if err != nil || !found {
			res.lost++
			continue
		}
		if !bytes.Equal(got, want) {
			res.mismatched++
		}
	}
}

// crash regenerates the crash-consistency soak table: crashSeeds seeded
// schedules, each killed at crashesPerSeed randomized WAL offsets
// (including mid-record), each recovery checked byte-for-byte against the
// acked-only oracle.
func crash(Scale) *Table {
	t := &Table{
		ID:    "crash",
		Title: "crash-consistency soak: WAL + snapshot recovery vs acked-write oracle",
		Columns: []string{"seed", "crashes", "torn tails", "acked ops",
			"lost", "mismatched", "replayed recs", "replayed KB", "truncated B", "recovery us (model)"},
		Notes: fmt.Sprintf("%d seeded crash points at randomized WAL offsets (incl. mid-record); "+
			"lost/mismatched count acked writes damaged by recovery and must be 0; "+
			"recovery time is the deterministic replay model at 1 GHz, per recovery",
			crashSeeds*crashesPerSeed),
	}

	var total crashSeedResult
	for s := 0; s < crashSeeds; s++ {
		seed := uint64(1000 + s)

		// Baseline: the full schedule with no crash, to learn the lifetime
		// WAL byte count T crash offsets are drawn against.
		dir, err := os.MkdirTemp("", "trackfm-crash-base-")
		if err != nil {
			panic(fmt.Sprintf("bench: crash tempdir: %v", err))
		}
		base, err := remote.OpenDurable(remote.DurableConfig{
			Dir:           dir,
			Fsync:         remote.FsyncNever,
			SnapshotEvery: crashSnapshotEvery,
		})
		if err != nil {
			panic(fmt.Sprintf("bench: crash baseline open: %v", err))
		}
		crashWorkload(base, seed, make(map[uint64][]byte))
		walTotal := base.WALWritten()
		base.Crash()
		os.RemoveAll(dir)

		var res crashSeedResult
		offRNG := sim.NewRNG(seed * 7919)
		for c := 0; c < crashesPerSeed; c++ {
			// Offsets in [1, T-1]: every draw kills the schedule mid-way;
			// most land mid-record and tear the in-flight append.
			off := 1 + int64(offRNG.Intn(int(walTotal-1)))
			runCrashPoint(seed, off, &res)
		}

		t.AddRow(d(seed), d(uint64(res.crashes)), d(uint64(res.tornTails)),
			d(res.acked), d(uint64(res.lost)), d(uint64(res.mismatched)),
			d(res.replayedRecs), f1(float64(res.replayedBytes)/1024),
			d(res.truncated), f1(float64(res.recoverCycles)/float64(res.crashes)/1000))

		total.crashes += res.crashes
		total.tornTails += res.tornTails
		total.acked += res.acked
		total.lost += res.lost
		total.mismatched += res.mismatched
		total.replayedRecs += res.replayedRecs
		total.replayedBytes += res.replayedBytes
		total.truncated += res.truncated
		total.recoverCycles += res.recoverCycles
	}
	t.AddRow("total", d(uint64(total.crashes)), d(uint64(total.tornTails)),
		d(total.acked), d(uint64(total.lost)), d(uint64(total.mismatched)),
		d(total.replayedRecs), f1(float64(total.replayedBytes)/1024),
		d(total.truncated), f1(float64(total.recoverCycles)/float64(total.crashes)/1000))
	t.Ops = total.acked // seeded schedules: deterministic across runs
	return t
}
