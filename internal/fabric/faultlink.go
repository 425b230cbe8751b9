package fabric

import (
	"fmt"
	"sync"

	"trackfm/internal/sim"
)

// FaultConfig parameterizes a FaultLink. All probabilities are per
// operation and drawn from one seeded sim.RNG, so a fixed seed yields a
// bit-identical fault schedule run after run — experiments with fault
// injection stay as reproducible as the fault-free ones.
type FaultConfig struct {
	// Seed seeds the injector's private RNG (zero selects sim.NewRNG's
	// fixed default).
	Seed uint64
	// DropRate is the probability an operation fails with an injected
	// ErrRemoteUnavailable before reaching the inner transport.
	DropRate float64
	// CorruptRate is the probability a successful fetch has one payload
	// byte flipped after the inner transport fills it and then fails the
	// way TCPTransport's wire check fails it: with a retryable
	// ErrIntegrity. It models a payload damaged in flight — a fault the
	// system sees and heals by re-issuing the fetch, never bytes handed
	// to the caller as good.
	CorruptRate float64
	// DelayRate is the probability an operation is delayed by
	// DelayCycles on the simulated clock (requires Env).
	DelayRate float64
	// DelayCycles is the simulated-cycle cost charged per injected delay.
	DelayCycles uint64
	// OutageEvery, when positive, starts a transient unavailability
	// window every OutageEvery operations: the next OutageLen operations
	// all fail with ErrRemoteUnavailable. This models a remote-node
	// crash-and-restart rather than independent per-op loss.
	OutageEvery int
	// OutageLen is the length, in operations, of each outage window
	// (default 1 when OutageEvery is set).
	OutageLen int
	// OverloadEvery, when positive, fails every OverloadEvery-th operation
	// outside an outage window with an injected ErrOverloaded before it
	// reaches the inner transport: the shed of a node's admission control.
	OverloadEvery int
	// Env, when set, is charged DelayCycles per injected delay so slow
	// links show up on the experiment timeline.
	Env *sim.Env
}

// FaultStats counts injected faults, for reconciling against the
// transport- and runtime-level counters in tests and experiments.
type FaultStats struct {
	Drops       uint64 // ops failed with an injected ErrRemoteUnavailable
	Corruptions uint64 // fetch payloads bit-flipped and failed with ErrIntegrity
	Delays      uint64 // delays charged to the sim clock
	OutageFails uint64 // ops failed inside an outage window (subset semantics: counted separately from Drops)
	Sheds       uint64 // ops failed with an injected ErrOverloaded
	Ops         uint64 // total operations observed
}

// FaultLink is an ErrorTransport decorator that injects faults against any
// inner transport: probabilistic drops, detected payload corruption,
// simulated-clock delays, periodic outage windows and periodic overload
// sheds. Wrap a SimLink to
// fault-test the deterministic runtimes, or a TCPTransport to stress the
// retry machinery over a real socket. It is safe for concurrent use (the
// injector serializes its RNG draws), though the fault schedule is only
// deterministic under a single-goroutine caller.
type FaultLink struct {
	inner ErrorTransport
	cfg   FaultConfig

	mu         sync.Mutex
	rng        *sim.RNG
	ops        uint64
	outageLeft int
	stats      FaultStats
}

// NewFaultLink wraps inner with the fault injector described by cfg.
func NewFaultLink(inner ErrorTransport, cfg FaultConfig) *FaultLink {
	if cfg.OutageEvery > 0 && cfg.OutageLen <= 0 {
		cfg.OutageLen = 1
	}
	return &FaultLink{
		inner: inner,
		cfg:   cfg,
		rng:   sim.NewRNG(cfg.Seed),
	}
}

// Stats returns a copy of the injected-fault counters.
func (f *FaultLink) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// InjectedFailures reports the total operations failed by injection
// before reaching the inner transport (drops, outage-window failures and
// sheds).
func (s FaultStats) InjectedFailures() uint64 { return s.Drops + s.OutageFails + s.Sheds }

// inject advances the fault schedule by one operation and returns a
// non-nil error if this operation is to fail before reaching the inner
// transport. Delays are charged here as a side effect.
func (f *FaultLink) inject() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	f.stats.Ops++
	if f.cfg.OutageEvery > 0 {
		if f.outageLeft > 0 {
			f.outageLeft--
			f.stats.OutageFails++
			return fmt.Errorf("%w: injected outage", ErrRemoteUnavailable)
		}
		if f.ops%uint64(f.cfg.OutageEvery) == 0 {
			f.outageLeft = f.cfg.OutageLen - 1
			f.stats.OutageFails++
			return fmt.Errorf("%w: injected outage", ErrRemoteUnavailable)
		}
	}
	if f.cfg.OverloadEvery > 0 && f.ops%uint64(f.cfg.OverloadEvery) == 0 {
		f.stats.Sheds++
		return fmt.Errorf("%w: injected shed", ErrOverloaded)
	}
	if f.cfg.DropRate > 0 && f.rng.Float64() < f.cfg.DropRate {
		f.stats.Drops++
		return fmt.Errorf("%w: injected drop", ErrRemoteUnavailable)
	}
	if f.cfg.DelayRate > 0 && f.rng.Float64() < f.cfg.DelayRate {
		f.stats.Delays++
		if f.cfg.Env != nil {
			f.cfg.Env.Clock.Advance(f.cfg.DelayCycles)
		}
	}
	return nil
}

// corrupt flips one byte of a fetched payload with CorruptRate probability
// and then reports what a payload damaged on the wire becomes: the error
// TCPTransport's CRC check raises, classified the same way, so a caller
// never takes the flipped bytes for data.
func (f *FaultLink) corrupt(dst []byte) error {
	if f.cfg.CorruptRate <= 0 || len(dst) == 0 {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rng.Float64() >= f.cfg.CorruptRate {
		return nil
	}
	f.stats.Corruptions++
	dst[f.rng.Intn(len(dst))] ^= 0xFF
	return classify(fmt.Errorf("%w: injected fetch payload corruption", ErrIntegrity))
}

// TryFetchUntil implements ErrorTransport: injection happens before the
// inner call, so drops and outages consume fault-schedule slots whether or
// not the deadline would have held; corruption applies only to payloads
// the inner transport successfully fetched.
func (f *FaultLink) TryFetchUntil(key uint64, dst []byte, dl Deadline) (bool, error) {
	if err := f.inject(); err != nil {
		return false, err
	}
	found, err := f.inner.TryFetchUntil(key, dst, dl)
	if err == nil && found {
		if err := f.corrupt(dst); err != nil {
			return false, err
		}
	}
	return found, err
}

// TryPushUntil implements ErrorTransport.
func (f *FaultLink) TryPushUntil(key uint64, src []byte, dl Deadline) error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.inner.TryPushUntil(key, src, dl)
}

// TryDeleteUntil implements ErrorTransport.
func (f *FaultLink) TryDeleteUntil(key uint64, dl Deadline) error {
	if err := f.inject(); err != nil {
		return err
	}
	return f.inner.TryDeleteUntil(key, dl)
}

// StartFetch implements AsyncFetcher: the injector applies its fault
// schedule, then forwards through the StartFetch helper so an inner link
// with an overlapped cost model (SimLink) keeps it. Corruption needs the
// payload, so the inner ticket is completed here and the one handed out
// is born complete.
func (f *FaultLink) StartFetch(key uint64, dst []byte) (Ticket, error) {
	if err := f.inject(); err != nil {
		return Ticket{}, err
	}
	tk, err := StartFetch(f.inner, key, dst)
	if err != nil {
		return Ticket{}, err
	}
	found, err := tk.Wait()
	if err == nil && found {
		if err := f.corrupt(dst); err != nil {
			return Ticket{}, err
		}
	}
	return Ticket{found: found}, err
}

var _ ErrorTransport = (*FaultLink)(nil)
var _ AsyncFetcher = (*FaultLink)(nil)
