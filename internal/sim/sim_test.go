package sim

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"trackfm/internal/obs"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Cycles() != 0 {
		t.Fatalf("zero clock has %d cycles", c.Cycles())
	}
	c.Advance(100)
	c.Advance(50)
	if got := c.Cycles(); got != 150 {
		t.Fatalf("Cycles() = %d, want 150", got)
	}
	c.Reset()
	if c.Cycles() != 0 {
		t.Fatalf("Reset did not zero the clock")
	}
}

func TestClockElapsed(t *testing.T) {
	var c Clock
	c.Advance(Frequency) // exactly one second of cycles
	if got := c.Seconds(); math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("Seconds() = %v, want 1.0", got)
	}
}

func TestClockString(t *testing.T) {
	var c Clock
	c.Advance(2_400_000)
	if got := c.String(); got != "2400000 cycles (0.001s @2.4GHz)" {
		t.Fatalf("String() = %q", got)
	}
}

func TestDefaultCostsMatchPaperTables(t *testing.T) {
	m := DefaultCosts()
	// Table 1 medians.
	cases := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"fast read cached", m.FastGuardReadCached, 21},
		{"fast write cached", m.FastGuardWriteCached, 21},
		{"fast read uncached", m.FastGuardReadUncached, 297},
		{"fast write uncached", m.FastGuardWriteUncached, 309},
		{"slow read cached", m.SlowGuardReadCached, 144},
		{"slow write cached", m.SlowGuardWriteCached, 159},
		{"slow read uncached", m.SlowGuardReadUncached, 453},
		{"slow write uncached", m.SlowGuardWriteUncached, 432},
		{"swap fault local", m.SwapFaultLocal, 1_300},
		{"swap fault remote", m.SwapFaultRemote, 34_000},
		{"local load/store", m.LocalLoadStore, 36},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
}

func TestRemoteFetchCalibration(t *testing.T) {
	// Table 2: a remote 4KB fetch should land near 35K cycles for the TCP
	// backend and near 34K for RDMA.
	m := DefaultCosts()
	tcp := m.RemoteObjectFetch(4096)
	if tcp < 34_000 || tcp > 36_000 {
		t.Errorf("TCP remote 4KB fetch = %d cycles, want ~35K", tcp)
	}
	rdma := m.RemotePageFetch(4096)
	if rdma >= tcp {
		t.Errorf("RDMA fetch (%d) should be cheaper than TCP fetch (%d)", rdma, tcp)
	}
	// The composed Fastswap major fault must land on the paper's Table 2
	// value: kernel fault path + RDMA page pull ~= 34K cycles.
	major := m.SwapFaultLocal + rdma
	if major < 33_000 || major > 35_000 {
		t.Errorf("composed major fault = %d cycles, want ~%d", major, m.SwapFaultRemote)
	}
	// And the composed TrackFM remote slow guard ~= 35K cycles.
	slowRemote := m.SlowGuardReadUncached + m.RemoteObjectFetch(4096)
	if slowRemote < 34_500 || slowRemote > 36_000 {
		t.Errorf("composed remote slow guard = %d cycles, want ~35K", slowRemote)
	}
}

// TestLibraryCostsReplaceGuardLayerOnly pins the comparator's cost table:
// Library differs from DefaultCosts in the fourteen guard-layer fields and
// nowhere else — every fetch, transfer, eviction and tier cost is shared —
// and each of the fourteen reads its library price.
func TestLibraryCostsReplaceGuardLayerOnly(t *testing.T) {
	def := DefaultCosts()
	lib := def.Library()
	deref := def.SmartPointerIndirection
	scope := deref + def.DerefScopeCost
	want := map[string]uint64{
		"FastGuardReadCached": deref, "FastGuardWriteCached": deref,
		"FastGuardReadUncached": deref, "FastGuardWriteUncached": deref,
		"SlowGuardReadCached": scope, "SlowGuardWriteCached": scope,
		"SlowGuardReadUncached": scope, "SlowGuardWriteUncached": scope,
		"LocalityInvariantPin": scope,
		"BoundaryCheck":        0, "ChunkInit": 0, "CustodyCheck": 0,
		"MallocCost": 0, "FreeCost": 0,
	}
	dv, lv := reflect.ValueOf(def), reflect.ValueOf(lib)
	seen := 0
	for i := 0; i < dv.NumField(); i++ {
		name := dv.Type().Field(i).Name
		price, guard := want[name]
		if guard {
			seen++
		}
		switch {
		case guard && lv.Field(i).Uint() != price:
			t.Errorf("Library().%s = %d, want %d", name, lv.Field(i).Uint(), price)
		case guard && dv.Field(i).Uint() == price:
			t.Errorf("DefaultCosts().%s is already %d: the library table does not replace it", name, price)
		case !guard && dv.Field(i).Interface() != lv.Field(i).Interface():
			t.Errorf("Library().%s = %v, DefaultCosts() has %v: not a guard-layer cost", name, lv.Field(i), dv.Field(i))
		}
	}
	if seen != len(want) || seen != 14 {
		t.Fatalf("%d of the %d listed guard-layer fields exist, want 14", seen, len(want))
	}
}

func TestTransferCyclesMonotone(t *testing.T) {
	m := DefaultCosts()
	if m.TransferCycles(0) != 0 {
		t.Fatalf("TransferCycles(0) != 0")
	}
	if m.TransferCycles(-5) != 0 {
		t.Fatalf("TransferCycles(-5) != 0")
	}
	prev := uint64(0)
	for _, n := range []int{64, 256, 4096, 1 << 20} {
		c := m.TransferCycles(n)
		if c <= prev {
			t.Fatalf("TransferCycles not strictly increasing at %d bytes", n)
		}
		prev = c
	}
	// 25 Gb/s at 2.4GHz: 1MiB should take ~805K cycles.
	c := m.TransferCycles(1 << 20)
	if c < 700_000 || c > 900_000 {
		t.Errorf("TransferCycles(1MiB) = %d, want ~805K", c)
	}
}

func TestCountersAggregates(t *testing.T) {
	var c Counters
	c.FastPathGuards = 10
	c.SlowPathGuards = 4
	c.MinorFaults = 3
	c.MajorFaults = 7
	c.BytesFetched = 4096
	if c.Guards() != 14 {
		t.Errorf("Guards() = %d, want 14", c.Guards())
	}
	if c.Faults() != 10 {
		t.Errorf("Faults() = %d, want 10", c.Faults())
	}
	if got := c.Amplification(2048); got != 2.0 {
		t.Errorf("Amplification = %v, want 2.0", got)
	}
	if got := c.Amplification(0); got != 0 {
		t.Errorf("Amplification(0) = %v, want 0", got)
	}
	c.Reset()
	if c.Guards() != 0 || c.BytesFetched != 0 {
		t.Errorf("Reset left state behind: %+v", c)
	}
}

func TestCountersString(t *testing.T) {
	var c Counters
	if got := c.String(); got != "" {
		t.Errorf("empty counters String() = %q, want empty", got)
	}
	c.FastPathGuards = 2
	c.MajorFaults = 1
	s := c.String()
	if s != "fast=2 majorFault=1" {
		t.Errorf("String() = %q", s)
	}
}

func TestEnvReset(t *testing.T) {
	e := NewEnv()
	e.Clock.Advance(99)
	e.Counters.Mallocs = 3
	e.Reset()
	if e.Clock.Cycles() != 0 || e.Counters.Mallocs != 0 {
		t.Fatalf("Env.Reset incomplete")
	}
	if e.Costs.FastGuardReadCached != 21 {
		t.Fatalf("Env.Reset clobbered the cost model")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different-seed RNGs coincided %d/1000 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatalf("zero-seeded RNG stuck at zero")
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	if err := quick.Check(func(nRaw uint16) bool {
		n := int(nRaw%1000) + 1
		v := r.Intn(n)
		return v >= 0 && v < n
	}, nil); err != nil {
		t.Error(err)
	}
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRNGFloat64Uniformish(t *testing.T) {
	r := NewRNG(123)
	var sum float64
	const n = 100_000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

// TestCountersFieldListsAgree holds the position-coupled lists to the
// struct: a field added to Counters but not to fields() would read 0
// through Snapshot (and so through Heap.Snapshot and /metrics), and one
// missing from metricDefs would export under its neighbour's name.
func TestCountersFieldListsAgree(t *testing.T) {
	var c Counters
	v := reflect.ValueOf(&c).Elem()
	fields := c.fields()
	if v.NumField() != len(fields) {
		t.Fatalf("Counters has %d fields, fields() lists %d", v.NumField(), len(fields))
	}
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("Counters.%s is %s; every field must be a uint64 counter", f.Name, f.Type)
		}
		if fields[i] != v.Field(i).Addr().Interface().(*uint64) {
			t.Errorf("fields()[%d] is not &Counters.%s: the list is out of declaration order", i, f.Name)
		}
	}
	if len(metricDefs) != len(fields) {
		t.Fatalf("metricDefs names %d counters, fields() lists %d", len(metricDefs), len(fields))
	}
	seen := make(map[string]bool)
	for _, d := range metricDefs {
		if !obs.ValidName(d.name) {
			t.Errorf("metric %q violates %s", d.name, obs.NamePattern)
		}
		if seen[d.name] {
			t.Errorf("metric %q named twice", d.name)
		}
		seen[d.name] = true
	}
}
