package fabric

import "fmt"

// RemoteConfig is the shared remote-memory configuration block embedded by
// every runtime config (aifm.Config, fastswap.Config, farmem.Config): one
// definition of where far memory lives and how hard to retry, instead of
// three drifting copies. At most one of RemoteAddr and Transport may be
// set; leaving both empty selects the runtime's default in-process SimLink.
type RemoteConfig struct {
	// RemoteAddr, when non-empty, dials a fabric.TCPTransport to a real
	// remote-memory server (cmd/fmserver) at this address.
	RemoteAddr string

	// Transport, when non-nil, is used directly — an in-process SimLink,
	// an already-dialed TCPTransport, or a FaultLink built by the caller.
	Transport ErrorTransport

	// RemoteRetries is the wire attempts per remote operation (default
	// 4): the runtime's far engine, the one place that re-issues a failed
	// fetch, push, flush or delete, makes at most RemoteRetries of them.
	// Every re-issue after the first attempt draws a token from the
	// engine's retry budget (except after an overload reject), so under
	// sustained faults an operation fails with its typed error once the
	// bucket is empty; an error the transport marks Permanent, or a missed
	// deadline, is never re-issued. The in-process SimLink never fails, so
	// deterministic experiments are unaffected.
	RemoteRetries int

	// OpDeadline, when positive, is the end-to-end budget for each remote
	// operation the runtime issues, in clock units (simulated cycles on
	// the runtime's sim.Clock). The deadline bounds the whole retry loop,
	// rides to the server in every request header, and surfaces as
	// ErrDeadlineExceeded when missed; repeated misses flip an aifm.Pool
	// into degraded mode. Zero means no deadline — exactly the previous
	// behaviour.
	OpDeadline uint64
}

// Retries returns the configured attempt budget, defaulting to 4.
func (c *RemoteConfig) Retries() int {
	if c.RemoteRetries <= 0 {
		return 4
	}
	return c.RemoteRetries
}

// Connect resolves the config into the transport a runtime should use: the
// explicit Transport or a freshly dialed TCPTransport for RemoteAddr. It
// returns a nil transport when no source is configured — the caller picks
// its default SimLink — and close is non-nil only when Connect itself
// opened a connection (the RemoteAddr path): the runtime's Close method
// calls it.
func (c *RemoteConfig) Connect() (t ErrorTransport, close func() error, err error) {
	switch {
	case c.RemoteAddr != "" && c.Transport != nil:
		return nil, nil, fmt.Errorf("fabric: RemoteConfig: RemoteAddr and Transport are mutually exclusive")
	case c.Transport != nil:
		return c.Transport, nil, nil
	case c.RemoteAddr != "":
		tr, err := Dial(c.RemoteAddr)
		if err != nil {
			return nil, nil, fmt.Errorf("fabric: dial %s: %w", c.RemoteAddr, err)
		}
		return tr, tr.Close, nil
	default:
		return nil, nil, nil
	}
}
