package obs

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenRegistry builds a registry with one series of every kind, with
// fixed values, so the exposition is fully deterministic.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.CounterFunc("trackfm_events_total", "Events observed.", func() uint64 { return 7 })
	r.CounterFunc("trackfm_replica_failovers_total", "Reads that failed over.",
		func() uint64 { return 2 }, Label{Key: "replica", Value: "r1"})
	r.CounterFunc("trackfm_replica_failovers_total", "Reads that failed over.",
		func() uint64 { return 9 }, Label{Key: "replica", Value: "r0"})
	r.GaugeFunc("trackfm_store_bytes", "Bytes resident on the node.", func() float64 { return 4096.5 })
	r.GaugeFunc("trackfm_governor_state", "Anti-thrash governor state (0 normal, 1 throttled, 2 degraded).",
		func() float64 { return 1 })
	h := r.Histogram("trackfm_remote_fetch_cycles", "Remote fetch latency.",
		[]uint64{100, 1000, 10000})
	for _, v := range []uint64{50, 150, 150, 5000, 123456} {
		h.Observe(v)
	}
	// The prefetch stream's series, as fabric.Stats, fabric.ServerStats and
	// aifm.Pool register them: a depth-8 scan's windows (128/16 requests
	// per client write) and coalescing factors, read off the exposition.
	r.CounterFunc("trackfm_transport_pipelined_fetches_total", "Fetches issued on the TCP transport's prefetch stream (requests written ahead of their replies).",
		func() uint64 { return 128 }, Label{Key: "transport", Value: "tcp"})
	r.CounterFunc("trackfm_transport_stream_flushes_total", "Writes of prefetch-stream requests to the socket, one per window of requests (pipelined fetches / flushes = requests per write).",
		func() uint64 { return 16 }, Label{Key: "transport", Value: "tcp"})
	r.CounterFunc("trackfm_server_flushes_total", "Writes of buffered replies to a socket (frames / flushes = replies per write; 1 for clients with one request in flight).",
		func() uint64 { return 17 })
	r.GaugeFunc("trackfm_pool_pending_prefetches", "Prefetches whose bytes are still in flight (slot claimed, object not yet resident).",
		func() float64 { return 8 })
	// The write-behind window's series, as fabric.Stats and far.Engine
	// register them: a 50 %-Set miss mix, nearly every push riding ahead of
	// the fetch that evicted it.
	r.CounterFunc("trackfm_transport_carried_pushes_total", "Pushes the TCP transport wrote ahead of another request in the same exchange (no round trip of their own).",
		func() uint64 { return 430 }, Label{Key: "transport", Value: "tcp"})
	r.CounterFunc("trackfm_transport_carry_exchanges_total", "Exchanges that carried at least one push ahead of their own request (carried pushes / carry exchanges = pushes per carry).",
		func() uint64 { return 420 }, Label{Key: "transport", Value: "tcp"})
	r.GaugeFunc("trackfm_pool_write_behind_parked", "Evicted dirty units whose push has not been acknowledged yet (write-behind window depth; 0 over transports that cannot carry pushes).",
		func() float64 { return 1 })
	r.CounterFunc("trackfm_pool_write_behind_forwards_total", "Fetches served from a copy still parked in the write-behind window (no round trip).",
		func() uint64 { return 3 })
	return r
}

// TestPrometheusGolden pins the exposition format byte for byte: families
// sorted by name, series sorted by labels, cumulative histogram buckets
// with a trailing +Inf, _sum and _count. Run with -update to regenerate.
func TestPrometheusGolden(t *testing.T) {
	var b strings.Builder
	if err := goldenRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestPrometheusDeterministic asserts two renderings of one registry are
// byte-identical (map iteration must not leak into the output).
func TestPrometheusDeterministic(t *testing.T) {
	r := goldenRegistry()
	var a, b strings.Builder
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("two renderings differ:\n%s\n---\n%s", a.String(), b.String())
	}
}
