package obs

// Snapshot is a point-in-time, race-free copy of every metric in a
// Registry, keyed by the metric's full identity (name plus rendered
// labels, e.g. `trackfm_bufpool_gets_total{pool="wire"}`). It is plain data:
// safe to copy, compare, and subtract.
type Snapshot struct {
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]HistogramSnapshot
}

// Counter returns the counter with the given id, or 0 if absent.
func (s Snapshot) Counter(id string) uint64 { return s.Counters[id] }

// Gauge returns the gauge with the given id, or 0 if absent.
func (s Snapshot) Gauge(id string) float64 { return s.Gauges[id] }

// Histogram returns the histogram with the given id (zero value if absent).
func (s Snapshot) Histogram(id string) HistogramSnapshot { return s.Histograms[id] }

// Delta returns the interval s - prev: counters and histogram buckets are
// subtracted (metrics absent from prev are treated as starting at zero, so
// a delta against the zero Snapshot is the totals themselves); gauges are
// levels, not rates, and pass through at their current value.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:   make(map[string]uint64, len(s.Counters)),
		Gauges:     make(map[string]float64, len(s.Gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(s.Histograms)),
	}
	for id, v := range s.Counters {
		d.Counters[id] = v - prev.Counters[id]
	}
	for id, v := range s.Gauges {
		d.Gauges[id] = v
	}
	for id, h := range s.Histograms {
		d.Histograms[id] = h.Delta(prev.Histograms[id])
	}
	return d
}
