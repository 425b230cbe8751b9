package obs

import (
	"math/rand"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
)

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"trackfm_remote_fetches_total": true,
		"trackfm_store_bytes":          true,
		"remote_fetches_total":         false, // missing namespace
		"trackfm_BadName":              false, // uppercase
		"trackfm_läuft":                false, // non-ascii
		"trackfm_":                     false, // empty suffix
	} {
		if got := ValidName(name); got != want {
			t.Errorf("ValidName(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestValidNameMatchesPattern holds ValidName's byte loop to NamePattern's
// regular expression over a generated corpus: every string of up to three
// bytes drawn from the edges of the accepted set, behind each of a few
// prefixes around "trackfm_", plus random strings.
func TestValidNameMatchesPattern(t *testing.T) {
	re := regexp.MustCompile(NamePattern)
	check := func(name string) {
		if got, want := ValidName(name), re.MatchString(name); got != want {
			t.Errorf("ValidName(%q) = %v, NamePattern says %v", name, got, want)
		}
	}
	alphabet := []byte("az09_AZ/`{:-.\x00\n\x7f\x80\xc3\xff ")
	prefixes := []string{"", "t", "trackfm", "trackfm_", "Trackfm_", "trackfm-", "trackfm__", "xtrackfm_", "trackfm_ok"}
	var tails func(prefix string, depth int)
	tails = func(prefix string, depth int) {
		check(prefix)
		if depth == 0 {
			return
		}
		for _, c := range alphabet {
			tails(prefix+string([]byte{c}), depth-1)
		}
	}
	for _, p := range prefixes {
		tails(p, 3)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := make([]byte, rng.Intn(24))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		check(prefixes[rng.Intn(len(prefixes))] + string(b))
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	zero := func() uint64 { return 0 }
	mustPanic("invalid name", func() { r.CounterFunc("Bad_Name", "", zero) })
	r.CounterFunc("trackfm_dup_total", "", zero)
	mustPanic("duplicate id", func() { r.CounterFunc("trackfm_dup_total", "", zero) })
	// Same name with different labels is a distinct series, not a duplicate.
	r.CounterFunc("trackfm_dup_total", "", zero, Label{Key: "replica", Value: "r0"})
}

func TestSnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	level := 2.5
	r.CounterFunc("trackfm_events_total", "events", c.Load)
	r.GaugeFunc("trackfm_level", "level", func() float64 { return level })
	h := r.Histogram("trackfm_lat_cycles", "latency", []uint64{10, 100})

	c.Add(5)
	h.Observe(7)
	h.Observe(70)
	h.Observe(700)
	s1 := r.Snapshot()
	if s1.Counter("trackfm_events_total") != 5 {
		t.Fatalf("counter = %d", s1.Counter("trackfm_events_total"))
	}
	if s1.Gauge("trackfm_level") != 2.5 {
		t.Fatalf("gauge = %v", s1.Gauge("trackfm_level"))
	}
	if got := s1.Histogram("trackfm_lat_cycles").Count(); got != 3 {
		t.Fatalf("hist count = %d", got)
	}

	c.Add(2)
	level = 1.0
	h.Observe(7)
	d := r.Snapshot().Delta(s1)
	if d.Counter("trackfm_events_total") != 2 {
		t.Fatalf("delta counter = %d", d.Counter("trackfm_events_total"))
	}
	if d.Gauge("trackfm_level") != 1.0 { // gauges are levels, not rates
		t.Fatalf("delta gauge = %v", d.Gauge("trackfm_level"))
	}
	dh := d.Histogram("trackfm_lat_cycles")
	if dh.Count() != 1 || dh.Sum != 7 {
		t.Fatalf("delta hist count=%d sum=%d", dh.Count(), dh.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]uint64{100, 200, 400})
	for i := 0; i < 100; i++ {
		h.Observe(50) // all in the first bucket
	}
	s := h.Snapshot()
	if q := s.Quantile(0.5); q <= 0 || q > 100 {
		t.Fatalf("p50 = %v, want within first bucket", q)
	}
	h.Observe(10_000) // +Inf bucket reports the largest finite bound
	if q := h.Snapshot().Quantile(1.0); q != 400 {
		t.Fatalf("p100 = %v, want 400", q)
	}
}

// TestConcurrentSnapshotDelta drives writers and a snapshotting reader
// concurrently (run under -race via make test): snapshots must be
// race-free, counters monotonic across successive snapshots, and the final
// snapshot must equal exactly what the writers produced.
func TestConcurrentSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	var c atomic.Uint64
	r.CounterFunc("trackfm_events_total", "", c.Load)
	h := r.Histogram("trackfm_lat_cycles", "", []uint64{8, 64, 512})

	const writers, perWriter = 8, 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	errc := make(chan string, 1)
	wg.Add(1)
	go func() { // reader: monotonicity across snapshots
		defer wg.Done()
		prev := r.Snapshot()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cur := r.Snapshot()
			d := cur.Delta(prev)
			// uint64 underflow would make the delta astronomically
			// large; monotonic counters keep it below the total.
			if d.Counter("trackfm_events_total") > writers*perWriter {
				select {
				case errc <- "counter went backwards between snapshots":
				default:
				}
				return
			}
			if d.Histogram("trackfm_lat_cycles").Count() > writers*perWriter {
				select {
				case errc <- "histogram shrank between snapshots":
				default:
				}
				return
			}
			prev = cur
		}
	}()

	var ww sync.WaitGroup
	for w := 0; w < writers; w++ {
		ww.Add(1)
		go func(w int) {
			defer ww.Done()
			for i := 0; i < perWriter; i++ {
				c.Add(1)
				h.Observe(uint64(w*perWriter + i))
			}
		}(w)
	}
	ww.Wait()
	close(stop)
	wg.Wait()
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}

	final := r.Snapshot()
	if got := final.Counter("trackfm_events_total"); got != writers*perWriter {
		t.Fatalf("final counter = %d, want %d", got, writers*perWriter)
	}
	if got := final.Histogram("trackfm_lat_cycles").Count(); got != writers*perWriter {
		t.Fatalf("final histogram count = %d, want %d", got, writers*perWriter)
	}
}
