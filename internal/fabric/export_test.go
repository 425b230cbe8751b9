package fabric

// The dial options no binary sets, for the tests — in this package and in
// fabric_test — that time retry and shedding with millisecond
// backoffs instead of the defaults Dial gives every real transport.
type (
	DialOptions = dialOptions
	RetryPolicy = retryPolicy
)

var DialWith = dialWith
