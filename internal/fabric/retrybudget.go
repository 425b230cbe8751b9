package fabric

import (
	"sync"
	"sync/atomic"
)

// Retry-budget defaults: a bucket of 16 tokens refilled at one tenth of a
// token per request means bursts of failures retry freely (a restarting
// server, a dropped connection) while a sustained brownout converges to
// at most ~10% of traffic being retries — load on a struggling memory
// node shrinks instead of multiplying. The shape follows the classic
// client-side retry-budget design (a fraction of recent requests may be
// retries), adapted to a plain token bucket so it stays deterministic.
const (
	defaultRetryBudgetCap   = 16.0
	defaultRetryBudgetRatio = 0.1
)

// RetryBudget is a token-bucket bound on retries across all operations of
// one far engine, which owns it: every re-issue of a remote operation is
// decided there and nowhere below. Every operation's first attempt deposits
// Ratio tokens (capped at Cap); every re-issue withdraws one whole token,
// and a re-issue with no token available is denied — the operation
// surfaces its last error instead. The bucket starts full so cold-start
// failure bursts (a restarting server, a dropped connection) are retried
// freely. RetryBudget is safe for concurrent use.
type RetryBudget struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	ratio  float64

	denied atomic.Uint64
}

// NewRetryBudget builds a budget with the given capacity and earn ratio.
// Non-positive values select the defaults (cap 16, ratio 0.1). The bucket
// starts full.
func NewRetryBudget(capacity, ratio float64) *RetryBudget {
	if capacity <= 0 {
		capacity = defaultRetryBudgetCap
	}
	if ratio <= 0 {
		ratio = defaultRetryBudgetRatio
	}
	return &RetryBudget{tokens: capacity, cap: capacity, ratio: ratio}
}

// OnRequest records one first attempt, earning Ratio tokens up to Cap.
// Overload rejects (ErrOverloaded) are backpressure, not demand — callers
// do not deposit for them.
func (b *RetryBudget) OnRequest() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
	b.mu.Unlock()
}

// TryRetry withdraws one token, reporting whether the retry may proceed.
// A denied retry is counted in Exhausted.
func (b *RetryBudget) TryRetry() bool {
	b.mu.Lock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	b.mu.Unlock()
	if !ok {
		b.denied.Add(1)
	}
	return ok
}

// Balance reports the current token count, for gauges and tests.
func (b *RetryBudget) Balance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tokens
}

// Exhausted reports how many retries were denied for lack of tokens.
func (b *RetryBudget) Exhausted() uint64 { return b.denied.Load() }
