package fabric

// The dial options no binary sets, for the tests — in this package and in
// fabric_test — that time retry, failover and shedding with millisecond
// backoffs instead of the defaults Dial gives every real transport.
type (
	DialOptions = dialOptions
	RetryPolicy = retryPolicy
)

var DialWith = dialWith

// Probe runs the health state machine without an operation, so a test can
// drain probes and resyncs after advancing the clock.
func (rs *ReplicaSet) Probe() { rs.advance() }
