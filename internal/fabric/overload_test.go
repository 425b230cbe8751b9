package fabric

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

func TestDeadlineClockDual(t *testing.T) {
	var zero Deadline
	if !zero.IsZero() || zero.Expired() {
		t.Fatalf("zero Deadline: IsZero=%v Expired=%v, want true,false", zero.IsZero(), zero.Expired())
	}
	if zero.Remaining() != 0 || zero.RemainingNanos() != 0 {
		t.Fatalf("zero Deadline reports a remaining budget")
	}

	var clk sim.Clock
	d := DeadlineAfter(&clk, 100)
	if d.IsZero() || d.Expired() {
		t.Fatalf("fresh sim deadline: IsZero=%v Expired=%v", d.IsZero(), d.Expired())
	}
	if got := d.Remaining(); got != 100 {
		t.Fatalf("Remaining = %d, want 100", got)
	}
	cycles := float64(d.Remaining())
	if want := uint64(cycles / sim.Frequency * 1e9); d.RemainingNanos() != want {
		t.Fatalf("RemainingNanos = %d, want %d", d.RemainingNanos(), want)
	}
	clk.Advance(99)
	if d.Expired() || d.Remaining() != 1 {
		t.Fatalf("after 99 cycles: Expired=%v Remaining=%d, want false,1", d.Expired(), d.Remaining())
	}
	clk.Advance(1)
	if !d.Expired() || d.Remaining() != 0 || d.RemainingNanos() != 0 {
		t.Fatalf("at expiry: Expired=%v Remaining=%d nanos=%d", d.Expired(), d.Remaining(), d.RemainingNanos())
	}

	w := WallDeadlineAfter(time.Hour)
	if w.Expired() {
		t.Fatalf("hour-out wall deadline already expired")
	}
	if n := w.RemainingNanos(); n == 0 || n > uint64(time.Hour) {
		t.Fatalf("wall RemainingNanos = %d, want in (0, 1h]", n)
	}
}

// TestDeadlineOnSimLink pins the ErrorTransport deadline contract on the
// one transport whose cost is a known number of simulated cycles: an
// expired operation is refused before it starts, one that completes past
// its deadline reports the miss and its result is withheld.
func TestDeadlineOnSimLink(t *testing.T) {
	env := sim.NewEnv()
	clk := &env.Clock
	link := NewSimLink(env, BackendTCP)
	dst := make([]byte, 4)
	cost := env.Costs.RemoteObjectFetch(len(dst))
	mustPush(t, link, 1, []byte{1, 2, 3, 4})

	// Within budget: the result is handed through.
	if found, err := link.TryFetchUntil(1, dst, DeadlineAfter(clk, 2*cost)); !found || err != nil {
		t.Fatalf("in-budget fetch = %v, %v", found, err)
	}

	// Late completion: the fetch ran (and was charged), but reports a
	// deadline miss and withholds the result.
	before := clk.Cycles()
	found, err := link.TryFetchUntil(1, dst, DeadlineAfter(clk, cost/2))
	if found || !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("late fetch = %v, %v; want false, ErrDeadlineExceeded", found, err)
	}
	if clk.Cycles() != before+cost {
		t.Fatalf("late fetch charged %d cycles, want %d", clk.Cycles()-before, cost)
	}

	// Already expired: refused before the link is touched.
	before, fetched := clk.Cycles(), env.Counters.BytesFetched
	if _, err := link.TryFetchUntil(1, dst, DeadlineAfter(clk, 0)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired fetch = %v, want ErrDeadlineExceeded", err)
	}
	if clk.Cycles() != before || env.Counters.BytesFetched != fetched {
		t.Fatalf("expired fetch still ran")
	}

	// A push gets the same late-completion semantics, and it did land;
	// push and delete are refused alike once expired.
	big := make([]byte, 4096)
	if err := link.TryPushUntil(2, big, DeadlineAfter(clk, 1)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("late push = %v, want ErrDeadlineExceeded", err)
	}
	if err := link.TryPushUntil(3, big, DeadlineAfter(clk, 0)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired push = %v, want ErrDeadlineExceeded", err)
	}
	if err := link.TryDeleteUntil(1, DeadlineAfter(clk, 0)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired delete = %v, want ErrDeadlineExceeded", err)
	}
	if link.RemoteKeys() != 2 {
		t.Fatalf("remote holds %d keys, want 2 (the late push landed, the expired push and delete did not run)", link.RemoteKeys())
	}
}

func TestRetryBudgetTokenBucket(t *testing.T) {
	rb := NewRetryBudget(4, 0.5)
	if got := rb.Balance(); got != 4 {
		t.Fatalf("fresh budget Balance = %v, want 4 (starts full)", got)
	}
	for i := 0; i < 4; i++ {
		if !rb.TryRetry() {
			t.Fatalf("retry %d denied with tokens available", i)
		}
	}
	if rb.TryRetry() {
		t.Fatalf("retry allowed from an empty bucket")
	}
	if got := rb.Exhausted(); got != 1 {
		t.Fatalf("Exhausted = %d, want 1", got)
	}
	// Two first attempts earn one whole token back at ratio 0.5.
	rb.OnRequest()
	rb.OnRequest()
	if got := rb.Balance(); got != 1 {
		t.Fatalf("Balance after two deposits = %v, want 1", got)
	}
	if !rb.TryRetry() {
		t.Fatalf("earned retry denied")
	}
	// Deposits clamp at capacity.
	for i := 0; i < 100; i++ {
		rb.OnRequest()
	}
	if got := rb.Balance(); got != 4 {
		t.Fatalf("Balance after over-deposit = %v, want cap 4", got)
	}
	// Zero config selects the documented defaults.
	if got := NewRetryBudget(0, 0).Balance(); got != 16 {
		t.Fatalf("default budget Balance = %v, want 16", got)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	var clk sim.Clock
	adm := NewAdmission(AdmissionConfig{MaxQueue: 2, Clock: &clk})
	for i := 0; i < 2; i++ {
		if v := adm.Offer(0, 0); v != Admit {
			t.Fatalf("offer %d = %v, want admit", i, v)
		}
	}
	if v := adm.Offer(0, 0); v != ShedQueueFull {
		t.Fatalf("offer at capacity = %v, want shed-queue-full", v)
	}
	if !ShedQueueFull.Shed() || Admit.Shed() {
		t.Fatalf("Verdict.Shed misclassifies")
	}
	adm.Done(10)
	if v := adm.Offer(0, 0); v != Admit {
		t.Fatalf("offer after Done = %v, want admit", v)
	}
	if adm.Inflight() != 2 {
		t.Fatalf("Inflight = %d, want 2", adm.Inflight())
	}
	s := adm.Stats()
	if s.Admitted() != 3 || s.ShedQueueFull() != 1 || s.Shed() != 1 {
		t.Fatalf("stats = %s, want 3 admitted / 1 shed-queue-full", s)
	}
}

func TestAdmissionDeadlineInfeasible(t *testing.T) {
	var clk sim.Clock
	adm := NewAdmission(AdmissionConfig{MaxQueue: 8, Clock: &clk})
	// Even with no service estimate, a queue delay beyond the budget is
	// infeasible on its own.
	if v := adm.Offer(600, 500); v != ShedDeadline {
		t.Fatalf("offer(qd=600, budget=500) = %v, want shed-deadline", v)
	}
	// Seed the service-time estimate.
	if v := adm.Offer(0, 0); v != Admit {
		t.Fatalf("seed offer = %v", v)
	}
	adm.Done(1000)
	if got := adm.ServiceEstimate(); got != 1000 {
		t.Fatalf("ServiceEstimate after first sample = %d, want 1000", got)
	}
	// Queue delay plus service time must fit inside the budget.
	if v := adm.Offer(0, 500); v != ShedDeadline {
		t.Fatalf("offer(budget=500, ewma=1000) = %v, want shed-deadline", v)
	}
	if v := adm.Offer(0, 2000); v != Admit {
		t.Fatalf("offer(budget=2000) = %v, want admit", v)
	}
	// Budget 0 means no deadline: never shed on feasibility.
	if v := adm.Offer(0, 0); v != Admit {
		t.Fatalf("no-deadline offer = %v, want admit", v)
	}
	// OfferEstimate derives queue delay from the live queue: 2 inflight
	// x ewma 1000 = 2000 estimated delay.
	if v := adm.OfferEstimate(1500); v != ShedDeadline {
		t.Fatalf("OfferEstimate(1500) = %v, want shed-deadline", v)
	}
	if v := adm.OfferEstimate(0); v != Admit {
		t.Fatalf("OfferEstimate(no deadline) = %v, want admit", v)
	}
	if got := adm.Stats().ShedDeadline(); got != 3 {
		t.Fatalf("ShedDeadline = %d, want 3", got)
	}
}

func TestAdmissionCoDelSustainedDelay(t *testing.T) {
	var clk sim.Clock
	adm := NewAdmission(AdmissionConfig{MaxQueue: 1000, Target: 100, Interval: 1000, Clock: &clk})
	// A burst above target admits: CoDel sheds standing queues, not spikes.
	if v := adm.Offer(200, 0); v != Admit {
		t.Fatalf("first above-target offer = %v, want admit", v)
	}
	clk.Advance(999)
	if v := adm.Offer(200, 0); v != Admit {
		t.Fatalf("offer inside interval = %v, want admit", v)
	}
	clk.Advance(1)
	if v := adm.Offer(200, 0); v != ShedCoDel {
		t.Fatalf("offer after sustained delay = %v, want shed-codel", v)
	}
	if v := adm.Offer(150, 0); v != ShedCoDel {
		t.Fatalf("still-standing queue = %v, want shed-codel", v)
	}
	// Draining below target resets the controller.
	if v := adm.Offer(50, 0); v != Admit {
		t.Fatalf("below-target offer = %v, want admit", v)
	}
	clk.Advance(2000)
	if v := adm.Offer(200, 0); v != Admit {
		t.Fatalf("fresh excursion = %v, want admit (interval restarts)", v)
	}
	if got := adm.Stats().ShedCoDel(); got != 2 {
		t.Fatalf("ShedCoDel = %d, want 2", got)
	}
}

func TestAdmissionServiceEWMA(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{})
	adm.Offer(0, 0)
	adm.Done(800)
	if got := adm.ServiceEstimate(); got != 800 {
		t.Fatalf("first sample = %d, want 800 (taken directly)", got)
	}
	adm.Offer(0, 0)
	adm.Done(0)
	// Gain 1/8: 800 - 800/8 + 0/8 = 700.
	if got := adm.ServiceEstimate(); got != 700 {
		t.Fatalf("EWMA after zero sample = %d, want 700", got)
	}
}

// TestOverloadShedBackpressureE2E drives the whole client/server overload
// path over a real socket: the v3 handshake carries each operation's
// deadline to the server, admission control sheds the infeasible request
// with an overload reject, and the client treats the reject as
// backpressure — typed ErrOverloaded after one attempt, no reconnect —
// while deadline-free traffic on the same connection keeps flowing.
func TestOverloadShedBackpressureE2E(t *testing.T) {
	srv := NewServer(remote.NewStore())
	adm := srv.EnableAdmission(AdmissionConfig{MaxQueue: 64})
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	tr, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()

	blob := []byte("overload e2e payload")
	if err := tr.TryPushUntil(7, blob, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	if adm.Stats().Admitted() == 0 {
		t.Fatalf("admission control saw no traffic")
	}

	// Poison the service-time estimate: with an hour-long EWMA, any request
	// carrying a deadline is infeasible and must be shed, while deadline-free
	// requests (budget 0) pass. That the next fetch is shed at all proves the
	// deadline rode the v3 frame header to the server.
	adm.Offer(0, 0)
	adm.Done(uint64(time.Hour.Nanoseconds()))

	dst := make([]byte, len(blob))
	found, err := tr.TryFetchUntil(7, dst, WallDeadlineAfter(250*time.Millisecond))
	if found || !errors.Is(err, ErrOverloaded) {
		t.Fatalf("fetch under overload = %v, %v; want false, ErrOverloaded", found, err)
	}
	if got := srv.Stats().Sheds(); got == 0 {
		t.Fatalf("server shed count = 0 after overload reject")
	}
	if got := adm.Stats().ShedDeadline(); got == 0 {
		t.Fatalf("no shed-deadline verdicts recorded")
	}
	if got := tr.Stats().Overloads(); got == 0 {
		t.Fatalf("client overload counter = 0")
	}
	// Backpressure, not failure: the connection was never torn down. (That
	// a shed attempt is re-issued without a retry-budget token is the far
	// engine's contract, tested there.)
	if got := tr.Stats().Reconnects(); got != 0 {
		t.Fatalf("Reconnects = %d after overload rejects, want 0", got)
	}

	// A deadline-free fetch on the same connection is admitted and served.
	found, err = tr.TryFetchUntil(7, dst, Deadline{})
	if err != nil || !found {
		t.Fatalf("deadline-free fetch during overload = %v, %v", found, err)
	}
	if !bytes.Equal(dst, blob) {
		t.Fatalf("payload corrupted across overload: %q", dst)
	}

	// Drain the poisoned estimate (gain 1/8 per sample) and the
	// deadline-bearing path recovers too.
	for i := 0; i < 400; i++ {
		adm.Offer(0, 0)
		adm.Done(0)
	}
	found, err = tr.TryFetchUntil(7, dst, WallDeadlineAfter(2*time.Second))
	if err != nil || !found {
		t.Fatalf("fetch after recovery = %v, %v", found, err)
	}
	if got := tr.Stats().Reconnects(); got != 0 {
		t.Fatalf("Reconnects = %d at end, want 0 (backpressure kept the conn)", got)
	}
}

// TestDeadlineExpiredFailsFastNoFrame pins the client-side fast path: an
// operation whose deadline has already expired fails with
// ErrDeadlineExceeded before any bytes reach the wire.
func TestDeadlineExpiredFailsFastNoFrame(t *testing.T) {
	srv := NewServer(remote.NewStore())
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	tr, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()
	if err := tr.TryPushUntil(1, []byte{0xAB}, Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}

	frames := srv.Stats().Frames()
	var clk sim.Clock
	clk.Advance(10)
	dst := make([]byte, 1)
	if _, err := tr.TryFetchUntil(1, dst, DeadlineAfter(&clk, 0)); !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("expired fetch = %v, want ErrDeadlineExceeded", err)
	}
	if got := tr.Stats().DeadlineMisses(); got == 0 {
		t.Fatalf("DeadlineMisses = 0 after expired op")
	}
	if got := srv.Stats().Frames(); got != frames {
		t.Fatalf("server frames went %d -> %d; expired op must not hit the wire", frames, got)
	}
}

// waitFor polls cond until it holds or a wall-clock deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}
