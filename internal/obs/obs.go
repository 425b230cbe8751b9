// Package obs is the unified observability substrate: one metrics
// registry that every subsystem registers into, so the scattered counter
// blocks of the runtimes (sim.Counters), the fabric (Stats, ServerStats),
// and the remote node (remote.Store) read out through a single coherent
// API.
//
// Three metric kinds are supported:
//
//   - counters: monotonic uint64 event tallies, read through a callback
//     from the subsystem's own atomic counter block (CounterFunc);
//   - gauges: point-in-time float64 levels, read the same way (GaugeFunc);
//   - histograms: fixed-bucket latency distributions in simulated clock
//     units (Histogram), from which p50/p99 quantiles are derived.
//
// Three read paths cover every consumer:
//
//   - Snapshot() — a point-in-time, race-free copy of every value, for
//     programmatic consumption (tests, the autotuner, typed public APIs);
//   - Snapshot.Delta(prev) — interval math for stats tickers and
//     per-phase benchmark reporting;
//   - WritePrometheus / Handler — a stable Prometheus text exposition for
//     scraping (cmd/fmserver's -metrics-addr endpoint).
//
// Every registered name must match NamePattern (^trackfm_[a-z0-9_]+$);
// registration panics otherwise, which is what keeps the exposition
// lint-clean by construction. Values are read atomically, so a snapshot
// is race-free against concurrent writers; it is not a globally
// consistent cut (counters incremented between two loads may differ by
// in-flight events), which is the same contract Prometheus scrapes have.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// NamePattern is the regular expression every registered metric name must
// match. The trackfm_ prefix namespaces the exposition; the lint in
// `make vet` asserts that every subsystem's registration conforms.
const NamePattern = `^trackfm_[a-z0-9_]+$`

// ValidName reports whether name conforms to NamePattern. It checks the
// bytes itself, since every fresh runtime registers dozens of names; the
// tests hold it to the regular expression.
func ValidName(name string) bool {
	rest, ok := strings.CutPrefix(name, "trackfm_")
	if !ok || rest == "" {
		return false
	}
	for i := 0; i < len(rest); i++ {
		if c := rest[i]; !('a' <= c && c <= 'z' || '0' <= c && c <= '9' || c == '_') {
			return false
		}
	}
	return true
}

// Label is one constant key="value" pair attached to a metric at
// registration time (e.g. a buffer pool's name). Labels distinguish
// multiple registrations of the same name.
type Label struct {
	Key, Value string
}

// renderLabels renders labels in canonical (sorted-key) order as
// `{k="v",k2="v2"}`, or "" for none. The rendering is part of the metric's
// identity and of the Prometheus exposition.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// kind discriminates the metric types inside the registry.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

// metric is one registered series: a name, optional constant labels, help
// text, and a race-free read function for its kind.
type metric struct {
	name   string // bare metric name (matches NamePattern)
	labels string // canonical label rendering, "" for none
	help   string
	kind   kind

	readCounter func() uint64
	readGauge   func() float64
	hist        *Histogram
}

// id is the metric's identity within a registry: name plus labels.
func (m *metric) id() string { return m.name + m.labels }

// Registry holds a set of uniquely named metrics. It is safe for
// concurrent registration and reading, though in practice subsystems
// register once at construction and only reads are concurrent.
type Registry struct {
	mu      sync.Mutex
	byID    map[string]*metric
	ordered []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*metric)}
}

// register validates and stores m, panicking on an invalid name or a
// duplicate (name, labels) identity — both are programming errors: metric
// names are static strings chosen at development time, and the panic is
// the registration-time enforcement of the metrics-name lint.
func (r *Registry) register(m *metric) {
	if !ValidName(m.name) {
		panic(fmt.Sprintf("obs: metric name %q does not match %s", m.name, NamePattern))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[m.id()]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %s", m.id()))
	}
	r.byID[m.id()] = m
	r.ordered = append(r.ordered, m)
}

// CounterFunc registers a counter whose value is read through fn. This is
// how existing atomic counter blocks (sim.Counters, fabric.Stats, ...)
// join the registry without moving their storage: fn must be race-free
// (an atomic load or a lock-guarded read).
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.register(&metric{name: name, labels: renderLabels(labels), help: help,
		kind: kindCounter, readCounter: fn})
}

// GaugeFunc registers a gauge whose value is read through fn (race-free,
// like CounterFunc).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.register(&metric{name: name, labels: renderLabels(labels), help: help,
		kind: kindGauge, readGauge: fn})
}

// Histogram registers and returns a fixed-bucket histogram with the given
// ascending upper bounds (see NewHistogram).
func (r *Registry) Histogram(name, help string, bounds []uint64, labels ...Label) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, labels: renderLabels(labels), help: help,
		kind: kindHistogram, hist: h})
	return h
}

// MustHistogram registers an externally constructed histogram (shared
// between a subsystem and the registry, the histogram analogue of
// CounterFunc).
func (r *Registry) MustHistogram(name, help string, h *Histogram, labels ...Label) {
	r.register(&metric{name: name, labels: renderLabels(labels), help: help,
		kind: kindHistogram, hist: h})
}

// snapshotLocked returns the registered metrics in registration order.
func (r *Registry) metricsList() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, len(r.ordered))
	copy(out, r.ordered)
	return out
}

// Snapshot reads every metric once, atomically per value, into a plain
// data snapshot. Safe to call concurrently with writers; see the package
// comment for the consistency contract.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]uint64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, m := range r.metricsList() {
		switch m.kind {
		case kindCounter:
			s.Counters[m.id()] = m.readCounter()
		case kindGauge:
			s.Gauges[m.id()] = m.readGauge()
		case kindHistogram:
			s.Histograms[m.id()] = m.hist.Snapshot()
		}
	}
	return s
}
