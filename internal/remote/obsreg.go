package remote

import "trackfm/internal/obs"

// Register exposes the store's inventory gauges and integrity counters on
// reg. Reads go through the store's lock, so a scrape observes a coherent
// (blobs, bytes) pair per metric read. A compressing store adds the raw
// bytes its blobs represent and the ratio between the two; a plain one,
// where they would be the byte gauge again and 1, does not.
func (s *Store) Register(reg *obs.Registry, labels ...obs.Label) {
	reg.GaugeFunc("trackfm_store_blobs",
		"Blobs currently held by the remote node.",
		func() float64 { return float64(s.Len()) }, labels...)
	reg.GaugeFunc("trackfm_store_bytes",
		"Total payload bytes currently held by the remote node.",
		func() float64 { return float64(s.Bytes()) }, labels...)
	if s.enc != nil {
		reg.GaugeFunc("trackfm_store_raw_bytes",
			"Decoded payload bytes the compressed blobs represent.",
			func() float64 { return float64(s.RawBytes()) }, labels...)
		reg.GaugeFunc("trackfm_store_compression_ratio",
			"Raw bytes divided by stored bytes across all blobs (effective memory multiplier).",
			func() float64 {
				s.mu.RLock()
				defer s.mu.RUnlock()
				if s.bytes == 0 {
					return 1
				}
				return float64(s.raw) / float64(s.bytes)
			}, labels...)
	}
	reg.CounterFunc("trackfm_store_size_mismatches_total",
		"Gets that found a stored blob shorter than the requested read.",
		func() uint64 { return s.Stats().SizeMismatches }, labels...)
	reg.CounterFunc("trackfm_store_checksum_fails_total",
		"Gets that found a stored blob failing its CRC32-C.",
		func() uint64 { return s.Stats().ChecksumFails }, labels...)
	reg.CounterFunc("trackfm_store_clears",
		"Store resets (Clear calls); each also zeroes the integrity counters.",
		s.Clears, labels...)
}

// Register exposes the embedded store's metrics plus the durability layer:
// WAL append/byte/fsync counters, snapshot activity, what the last
// recovery replayed and dropped, and the recovery-duration histogram.
func (ds *DurableStore) Register(reg *obs.Registry, labels ...obs.Label) {
	ds.Store.Register(reg, labels...)
	s := &ds.stats
	reg.CounterFunc("trackfm_wal_appends",
		"Records appended to the write-ahead log.", s.WALAppends, labels...)
	reg.CounterFunc("trackfm_wal_bytes",
		"Bytes appended to the write-ahead log.", s.WALBytes, labels...)
	reg.CounterFunc("trackfm_wal_fsyncs",
		"Fsync calls issued by the write-ahead log.", s.WALFsyncs, labels...)
	reg.CounterFunc("trackfm_wal_append_errors_total",
		"WAL appends that failed; each surfaced as an un-acknowledged operation.",
		s.WALAppendErrs, labels...)
	reg.CounterFunc("trackfm_snapshots_total",
		"Compacting snapshots written (atomic rename over the previous one).",
		s.Snapshots, labels...)
	reg.CounterFunc("trackfm_snapshot_bytes_total",
		"Bytes written across all compacting snapshots.", s.SnapshotBytes, labels...)
	reg.CounterFunc("trackfm_snapshot_fails_total",
		"Snapshot attempts that failed (the WAL is kept in full after each).",
		s.SnapshotFails, labels...)
	reg.CounterFunc("trackfm_recovery_replayed_records",
		"Valid WAL records replayed by the last recovery.",
		func() uint64 { return ds.rec.ReplayedRecords }, labels...)
	reg.CounterFunc("trackfm_recovery_replayed_bytes",
		"WAL bytes replayed by the last recovery.",
		func() uint64 { return ds.rec.ReplayedBytes }, labels...)
	reg.CounterFunc("trackfm_recovery_truncated_tail",
		"WAL tail bytes dropped by the last recovery at the first torn or corrupt record.",
		func() uint64 { return ds.rec.TruncatedTail }, labels...)
	reg.GaugeFunc("trackfm_store_generation",
		"Restart generation of this boot (monotonic per data directory).",
		func() float64 { return float64(ds.gen) }, labels...)
	reg.GaugeFunc("trackfm_wal_size_bytes",
		"Current size of the write-ahead log file.",
		func() float64 { return float64(ds.WALSize()) }, labels...)
	reg.MustHistogram("trackfm_recovery_duration_ns",
		"Wall-clock recovery duration (snapshot load + WAL replay), nanoseconds.",
		ds.recoveryHist, labels...)
}
