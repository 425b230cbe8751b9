package core

import (
	"fmt"

	"trackfm/internal/far"
	"trackfm/internal/sim"
)

// MultiRuntime implements the paper's "multiple object sizes" future work
// (§3.2: "While multiple object sizes are possible, this increases the
// complexity of the runtime system and compiler transformations, so we
// leave this for future work").
//
// The design follows the paper's own pointer-encoding idea one step
// further: bit 60 still flags TrackFM custody, and bits 57-59 carry a
// size-class tag, so a guard can route any pointer to its class's pool
// and object state table with two extra shift/mask instructions. Each
// class is a full Runtime over a slice of the far heap; the local-memory
// budget is split across classes in proportion to requested weights (the
// simplification relative to a shared arena — fragmentation across
// classes is the complexity the paper warned about, and it is documented
// rather than hidden).
type MultiRuntime struct {
	env     *sim.Env
	classes []classRuntime
}

type classRuntime struct {
	objSize int
	rt      *Runtime
}

// classShift places the size-class tag in bits 57-59.
const classShift = 57

// classOf extracts the size-class index from a managed pointer.
func classOf(p Ptr) int { return int(p>>classShift) & 0x7 }

// tagClass stamps a class index into a pointer.
func tagClass(p Ptr, class int) Ptr { return p | Ptr(class)<<classShift }

// untag removes the class tag, recovering the class runtime's native
// pointer.
func untag(p Ptr) Ptr { return p &^ (Ptr(0x7) << classShift) }

// MultiConfig parameterizes a MultiRuntime.
type MultiConfig struct {
	// Env supplies the clock, counters, and cost model. Required.
	Env *sim.Env
	// Classes lists the object sizes, each a power of two in
	// [64, 65536], at most 8 entries. Required.
	Classes []int
	// HeapPerClass caps each class's far heap.
	HeapPerClass uint64
	// LocalBudget is the total local memory, split across classes by
	// Weights (equal split when nil).
	LocalBudget uint64
	// Weights optionally skews the local-budget split (len == Classes).
	Weights []float64
	// Backing, NoPrefetch as in Config.
	Backing    far.Backing
	NoPrefetch bool
}

// NewMultiRuntime validates cfg and builds the per-class runtimes.
func NewMultiRuntime(cfg MultiConfig) (*MultiRuntime, error) {
	if cfg.Env == nil {
		return nil, fmt.Errorf("core: MultiConfig.Env is required")
	}
	if len(cfg.Classes) == 0 || len(cfg.Classes) > 8 {
		return nil, fmt.Errorf("core: MultiConfig.Classes must have 1..8 entries")
	}
	if cfg.HeapPerClass == 0 || cfg.LocalBudget == 0 {
		return nil, fmt.Errorf("core: HeapPerClass and LocalBudget are required")
	}
	if cfg.Weights != nil && len(cfg.Weights) != len(cfg.Classes) {
		return nil, fmt.Errorf("core: Weights length %d != Classes length %d",
			len(cfg.Weights), len(cfg.Classes))
	}
	var totalW float64
	for i := range cfg.Classes {
		w := 1.0
		if cfg.Weights != nil {
			w = cfg.Weights[i]
			if w <= 0 {
				return nil, fmt.Errorf("core: non-positive class weight %v", w)
			}
		}
		totalW += w
	}
	m := &MultiRuntime{env: cfg.Env}
	for i, objSize := range cfg.Classes {
		w := 1.0
		if cfg.Weights != nil {
			w = cfg.Weights[i]
		}
		budget := uint64(float64(cfg.LocalBudget) * w / totalW)
		if budget < uint64(objSize) {
			budget = uint64(objSize)
		}
		rt, err := NewRuntime(Config{
			Env:         cfg.Env,
			ObjectSize:  objSize,
			HeapSize:    cfg.HeapPerClass,
			LocalBudget: budget,
			Backing:     cfg.Backing,
			NoPrefetch:  cfg.NoPrefetch,
		})
		if err != nil {
			return nil, fmt.Errorf("core: class %dB: %w", objSize, err)
		}
		m.classes = append(m.classes, classRuntime{objSize: objSize, rt: rt})
	}
	return m, nil
}

// Env returns the shared simulation environment.
func (m *MultiRuntime) Env() *sim.Env { return m.env }

// Classes reports the configured object sizes.
func (m *MultiRuntime) Classes() []int {
	out := make([]int, len(m.classes))
	for i, c := range m.classes {
		out[i] = c.objSize
	}
	return out
}

// classFor picks the smallest class whose object holds n bytes (or the
// largest class for bigger allocations, which then span objects).
func (m *MultiRuntime) classFor(n uint64) int {
	for i, c := range m.classes {
		if n <= uint64(c.objSize) {
			return i
		}
	}
	return len(m.classes) - 1
}

// Malloc allocates n bytes from the best-fitting size class. The compiler
// picks the class per allocation site (by static size or profiling); the
// runtime here implements the site's decision.
func (m *MultiRuntime) Malloc(n uint64) (Ptr, error) {
	return m.MallocClass(n, m.classFor(n))
}

// MallocClass allocates from an explicit class index.
func (m *MultiRuntime) MallocClass(n uint64, class int) (Ptr, error) {
	if class < 0 || class >= len(m.classes) {
		return 0, fmt.Errorf("core: size class %d out of range", class)
	}
	p, err := m.classes[class].rt.Malloc(n)
	if err != nil {
		return 0, err
	}
	return tagClass(p, class), nil
}

// route charges the class-decode overhead (two extra ALU instructions on
// every guard) and returns the owning runtime and untagged pointer.
func (m *MultiRuntime) route(p Ptr) (*Runtime, Ptr) {
	checkManaged(p, "MultiRuntime access")
	m.env.Clock.Advance(2)
	c := classOf(p)
	if c >= len(m.classes) {
		panic(fmt.Sprintf("core: pointer %#x carries unknown size class %d", uint64(p), c))
	}
	return m.classes[c].rt, untag(p)
}

// LoadU64 performs a guarded load through the owning class.
func (m *MultiRuntime) LoadU64(p Ptr) uint64 {
	rt, q := m.route(p)
	return rt.LoadU64(q)
}

// StoreU64 performs a guarded store through the owning class.
func (m *MultiRuntime) StoreU64(p Ptr, v uint64) {
	rt, q := m.route(p)
	rt.StoreU64(q, v)
}

// Load moves len(dst) bytes through the owning class.
func (m *MultiRuntime) Load(p Ptr, dst []byte) {
	rt, q := m.route(p)
	rt.Load(q, dst)
}

// Store moves src through the owning class.
func (m *MultiRuntime) Store(p Ptr, src []byte) {
	rt, q := m.route(p)
	rt.Store(q, src)
}

// Free releases an allocation.
func (m *MultiRuntime) Free(p Ptr) {
	rt, q := m.route(p)
	rt.Free(q)
}

// NewCursor opens a chunked cursor within the owning class.
func (m *MultiRuntime) NewCursor(base Ptr, elemSize int, prefetch bool) *Cursor {
	rt, q := m.route(base)
	return rt.NewCursor(q, elemSize, prefetch)
}
