package remote

import (
	"strings"
	"testing"

	"trackfm/internal/obs"
)

// Every durability series must surface on the /metrics exposition a
// fmserver -data-dir node serves: register a live DurableStore and check
// the rendered page names each one.
func TestDurableMetricsExposition(t *testing.T) {
	ds, err := OpenDurable(DurableConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	if err := ds.Put(1, []byte("observed")); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	ds.Register(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	page := b.String()

	for _, name := range []string{
		"trackfm_store_blobs",
		"trackfm_store_clears",
		"trackfm_wal_appends",
		"trackfm_wal_bytes",
		"trackfm_wal_fsyncs",
		"trackfm_wal_append_errors_total",
		"trackfm_wal_size_bytes",
		"trackfm_snapshots_total",
		"trackfm_snapshot_bytes_total",
		"trackfm_snapshot_fails_total",
		"trackfm_recovery_replayed_records",
		"trackfm_recovery_replayed_bytes",
		"trackfm_recovery_truncated_tail",
		"trackfm_recovery_duration_ns",
		"trackfm_store_generation",
	} {
		if !strings.Contains(page, "\n"+name) && !strings.HasPrefix(page, name) {
			t.Errorf("exposition is missing %s", name)
		}
	}

	// The WAL counters reflect the acknowledged put (gen record + put),
	// each synced once under the default policy; the fsync series is the
	// log's own count.
	if ds.DurableStats().WALAppends() < 2 {
		t.Fatalf("WALAppends = %d, want >= 2", ds.DurableStats().WALAppends())
	}
	if !strings.Contains(page, "\ntrackfm_wal_fsyncs 2\n") {
		t.Errorf("exposition does not report 2 WAL fsyncs:\n%s", page)
	}
}
