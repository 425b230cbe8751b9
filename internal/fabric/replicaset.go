package fabric

import (
	"fmt"
	"sync"
	"time"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/obs"
	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// probeKey is the reserved key liveness probes fetch. It sits at the top
// of the key space, above any key the runtimes generate (aifm namespaces
// keys as dsid<<56|id with 38-bit ids), so a probe can never read — or be
// confused with — application data.
const probeKey = ^uint64(0)

// ReplicaConfig parameterizes a ReplicaSet.
type ReplicaConfig struct {
	// Quorum is the minimum number of replicas that must acknowledge a
	// write (push or delete) for the operation to succeed. Writes are
	// always attempted on every healthy replica (write-all); the quorum
	// only decides when the caller is told the write failed. Zero selects
	// a majority (n/2+1).
	Quorum int

	// FailureThreshold is the number of consecutive failed operations
	// that opens a replica's circuit breaker (default 3). Integrity
	// failures do not count — a node serving corrupt bytes for one key is
	// alive, and is handled by read-repair instead of quarantine.
	FailureThreshold int

	// OpenTimeout is how long an open breaker waits before a half-open
	// probe, in clock units: simulated cycles when Clock is set,
	// nanoseconds otherwise. Zero selects 1e6 cycles / 500ms. The actual
	// deadline is jittered into [3/4, 5/4) of the nominal value by the
	// seeded RNG so replicas sharing a config do not probe in lockstep.
	// The same timeout throttles background resync attempts for a replica
	// that is closed but still owes missed writes (it failed a write
	// without tripping its breaker).
	OpenTimeout uint64

	// Clock, when set, drives breaker timing off the deterministic
	// simulated clock — fault-injection experiments replay bit-identically.
	// When nil, wall-clock time is used.
	Clock *sim.Clock

	// Seed seeds the deterministic RNG behind breaker-deadline jitter
	// (zero selects sim.NewRNG's fixed default).
	Seed uint64
}

func (c ReplicaConfig) withDefaults(n int) ReplicaConfig {
	if c.Quorum <= 0 {
		c.Quorum = n/2 + 1
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.OpenTimeout == 0 {
		c.OpenTimeout = clockUnits(c.Clock, 1_000_000, 500*time.Millisecond)
	}
	return c
}

// blobVer is the authoritative record of the last write accepted for a
// key: a monotonic version, the payload's CRC32-C, and its length. It is
// what makes acks "versioned" — a replica is only considered caught up for
// a key when it has acknowledged (or been resynced to) the latest version
// — and what gives reads their end-to-end integrity check.
type blobVer struct {
	ver  uint64
	crc  uint32
	size int
}

// ReplicaSet is an ErrorTransport that replicates a far-memory keyspace
// across N underlying transports:
//
//   - Writes fan out to every healthy replica (write-all) and succeed when
//     a configurable quorum acknowledges. Replicas that miss a write (down,
//     or the write failed) are recorded and resynced before they serve
//     reads again.
//   - Reads are served by the preferred (lowest-index) healthy replica,
//     with automatic failover down the replica list.
//   - Each replica runs a circuit breaker: consecutive failures open it,
//     an open breaker quarantines the replica until a timeout, and a
//     half-open probe (liveness check plus full replay of missed writes)
//     decides whether it rejoins. Timing runs off sim.Clock when
//     configured, so failover schedules are deterministic.
//   - Every fetched payload is verified against the CRC32-C recorded when
//     the key was last pushed. A replica serving corrupt, stale, or
//     unexpectedly absent data is detected (Stats.ChecksumFaults), the
//     read fails over, and the bad replica is repaired in place from the
//     healthy copy — corruption is never handed to the mutator.
//
// ReplicaSet is safe for concurrent use; operations are serialized by one
// mutex, held across a read's one network leg and a write's fan-out (the
// runtimes above it are single-timeline, so the coarse lock is not a
// bottleneck); only probe and resync I/O runs with it released.
type ReplicaSet struct {
	cfg     ReplicaConfig
	members []ErrorTransport
	stats   Stats
	rstats  ReplicaSetStats

	mu      sync.Mutex
	vers    map[uint64]blobVer
	brk     []breaker
	missed  []map[uint64]struct{} // per-replica keys whose latest write it has not acked
	lastGen []uint64              // per-replica restart generation last seen in a hello (0 = none yet)
	rng     *sim.RNG

	// failoverHist, when set, observes the end-to-end latency (in the
	// set's clock units) of every read that needed at least one failover.
	failoverHist *obs.Histogram
}

// ObserveFailovers directs the set to record the latency of every read
// that failed over (in clock units: simulated cycles when Clock is set,
// wall nanoseconds otherwise) into h. The runtimes wire this to their
// environment's trackfm_replica_failover_cycles histogram.
func (rs *ReplicaSet) ObserveFailovers(h *obs.Histogram) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.failoverHist = h
}

// NewReplicaSet builds a replica set over members (preferred read order =
// argument order); at least one is required and the quorum cannot exceed
// the member count.
func NewReplicaSet(cfg ReplicaConfig, members ...ErrorTransport) (*ReplicaSet, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("fabric: ReplicaSet needs at least one member")
	}
	cfg = cfg.withDefaults(len(members))
	if cfg.Quorum > len(members) {
		return nil, fmt.Errorf("fabric: quorum %d exceeds %d replicas", cfg.Quorum, len(members))
	}
	rs := &ReplicaSet{
		cfg:     cfg,
		vers:    make(map[uint64]blobVer),
		brk:     make([]breaker, len(members)),
		missed:  make([]map[uint64]struct{}, len(members)),
		lastGen: make([]uint64, len(members)),
		rng:     sim.NewRNG(cfg.Seed),
	}
	rs.members = append(rs.members, members...)
	for i := range rs.missed {
		rs.missed[i] = make(map[uint64]struct{})
	}
	return rs, nil
}

// Stats exposes the set's transport-level counters (checksum faults,
// deadline misses, ...).
func (rs *ReplicaSet) Stats() *Stats { return &rs.stats }

// ReplicaStats exposes the set's replication-level counters.
func (rs *ReplicaSet) ReplicaStats() *ReplicaSetStats { return &rs.rstats }

// Health returns a point-in-time view of every replica's breaker, in
// member order.
func (rs *ReplicaSet) Health() []ReplicaHealth {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	out := make([]ReplicaHealth, len(rs.members))
	for i := range rs.members {
		out[i] = ReplicaHealth{
			State:       rs.brk[i].state,
			ConsecFails: rs.brk[i].consecFails,
			MissedKeys:  len(rs.missed[i]),
		}
	}
	return out
}

// retryAt is the clock reading at which a breaker is next due — an open
// one for its half-open probe, a closed one owing writes for its next
// resync: now plus OpenTimeout, jittered into [3/4, 5/4) of itself by the
// seeded RNG (the shared jitterWindow helper, same rule as retry backoff's
// [1/2, 1) window).
func (rs *ReplicaSet) retryAt() uint64 {
	d := rs.cfg.OpenTimeout
	if d >= 4 {
		d = jitterWindow(d, 0.75, 1.25, rs.rng)
	}
	return clockNow(rs.cfg.Clock) + d
}

// advance moves the health state machine on: open breakers whose timeout
// expired are probed (resync + liveness) and rejoin or re-open, and closed
// replicas owing missed writes get a throttled background resync. Every
// operation starts with it. Due work is claimed under the mutex and its
// I/O runs with the mutex released: the caller that claims a due probe
// runs it synchronously, while concurrent callers see the per-breaker
// probing flag and proceed straight to their own operation — they fail
// over past the quarantined replica instead of queueing behind its probe
// I/O. At most one prober per replica is ever in flight.
func (rs *ReplicaSet) advance() {
	// Refresh each member's advertised identity first: reading the
	// transport's last-seen hello is two atomic-cheap loads, and doing it
	// every cycle is what records a replica's pre-restart generation so a
	// post-restart hello is recognizable as a change.
	for i := range rs.members {
		rs.noteIdentity(i)
	}
	rs.mu.Lock()
	probes, resyncs := rs.claimDueLocked()
	rs.mu.Unlock()
	for _, i := range probes {
		rs.runProbe(i)
	}
	for _, i := range resyncs {
		rs.runResync(i)
	}
}

// claimDueLocked scans the breakers for due work and claims it by setting
// the probing flag: open breakers past their deadline become half-open
// probe tasks, closed replicas owing missed writes past their resync
// deadline become background-resync tasks. Replicas already being probed
// are skipped.
func (rs *ReplicaSet) claimDueLocked() (probes, resyncs []int) {
	now := clockNow(rs.cfg.Clock)
	for i := range rs.members {
		b := &rs.brk[i]
		if b.probing {
			continue
		}
		switch b.state {
		case BreakerOpen:
			if now >= b.deadline {
				b.state = BreakerHalfOpen
				b.probing = true
				probes = append(probes, i)
			}
		case BreakerClosed:
			if len(rs.missed[i]) > 0 && now >= b.deadline {
				// Background repair of a replica that failed writes
				// without tripping its breaker.
				b.probing = true
				resyncs = append(resyncs, i)
			}
		}
	}
	return probes, resyncs
}

// noteIdentity reads replica i's advertised restart generation (learned
// from the most recent hello exchange, if the transport reports identity)
// and reconciles the missed-write ledger with it. A changed generation
// means the node restarted while quarantined:
//
//   - durable bit set: the node recovered its keyspace from local WAL +
//     snapshot state, so the writes it missed during downtime — already in
//     rs.missed[i] from the write path — are the only repair needed (a
//     delta rejoin);
//   - durable bit clear: the node came back empty, so every key the set
//     tracks is re-marked missed and replayed from peers (a full resync).
//
// Called after a liveness exchange (which is what refreshes the hello on a
// reconnect) and before the resync that replays the missed set.
func (rs *ReplicaSet) noteIdentity(i int) {
	ir, ok := rs.members[i].(IdentityReporter)
	if !ok {
		return
	}
	gen, durable := ir.PeerIdentity()
	if gen == 0 {
		return // peer does not advertise identity
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	prev := rs.lastGen[i]
	rs.lastGen[i] = gen
	if prev == 0 || gen == prev {
		return // first sighting, or no restart since last seen
	}
	rs.rstats.restarts.Add(1)
	if durable {
		rs.rstats.deltaRejoins.Add(1)
		return
	}
	rs.rstats.fullResyncs.Add(1)
	for key := range rs.vers {
		rs.missed[i][key] = struct{}{}
	}
}

// runProbe runs the half-open probe for replica i with the mutex
// released: verify liveness (which refreshes the hello — and with it the
// peer's restart generation — on a reconnect), reconcile the missed-write
// ledger against that identity, then replay every missed write. Success
// closes the breaker; failure re-opens it for another timeout. The caller
// must have claimed the probe via claimDueLocked.
func (rs *ReplicaSet) runProbe(i int) {
	rs.rstats.probes.Add(1)
	// Liveness first: the replica must answer a fetch before rejoining.
	// probeKey is reserved, so "absent without error" is healthy. The
	// fetch also forces a reconnect + hello on a restarted peer, so the
	// identity read below sees the post-restart generation.
	var probeBuf [1]byte
	err := tryN(resyncAttempts, func() error {
		_, err := rs.members[i].TryFetchUntil(probeKey, probeBuf[:], Deadline{})
		return err
	})
	ok := err == nil
	if ok {
		rs.noteIdentity(i)
		ok = rs.resync(i)
	}
	rs.mu.Lock()
	b := &rs.brk[i]
	b.probing = false
	if ok {
		b.state = BreakerClosed
		b.consecFails = 0
		b.deadline = 0
	} else {
		rs.rstats.probeFails.Add(1)
		b.state = BreakerOpen
		b.deadline = rs.retryAt()
	}
	rs.mu.Unlock()
}

// runResync runs a claimed background resync for a closed replica with
// the mutex released, rescheduling the next attempt if it did not drain.
func (rs *ReplicaSet) runResync(i int) {
	rs.noteIdentity(i)
	ok := rs.resync(i)
	rs.mu.Lock()
	b := &rs.brk[i]
	b.probing = false
	if !ok && b.state == BreakerClosed {
		b.deadline = rs.retryAt()
	}
	rs.mu.Unlock()
}

// resyncAttempts is the per-key attempts resync and probe traffic get
// against a replica's transport — wire tries, since a transport makes one
// attempt per call and no far engine sits above this traffic to re-issue
// it: over a lossy link (the failover tests run 10% injected drops) a
// single attempt per key would make a large resync effectively never
// complete (0.9^n), while three make per-key success overwhelmingly likely
// without masking a genuinely dead replica.
const resyncAttempts = 3

// tryN runs op up to n times, returning nil on the first success.
func tryN(n int, op func() error) error {
	var err error
	for a := 0; a < n; a++ {
		if err = op(); err == nil {
			return nil
		}
	}
	return err
}

// resync replays replica i's missed writes from healthy peers with the
// mutex released around every network leg: deleted keys are deleted, live
// keys are fetched from a donor, verified against the recorded CRC, and
// pushed. The missed set and version records are snapshotted up front and
// each key is finalized individually — and only if its version is still
// the one that was replayed, so a write racing the resync (which re-marks
// the key missed) is never clobbered. Keys that fail their retry budget
// stay in the missed set for the next attempt — an isolated loss must not
// restart the whole replay — but two keys failing every attempt in a row
// means the replica is unreachable, and the resync bails out rather than
// grind through the rest of the set against a dead node. Reports whether
// the missed set drained completely.
func (rs *ReplicaSet) resync(i int) bool {
	rs.mu.Lock()
	keys := make([]uint64, 0, len(rs.missed[i]))
	snap := make(map[uint64]blobVer, len(rs.missed[i]))
	for key := range rs.missed[i] {
		keys = append(keys, key)
		if e, live := rs.vers[key]; live {
			snap[key] = e
		}
	}
	rs.mu.Unlock()
	hardFails := 0
	for _, key := range keys {
		if hardFails >= 2 {
			return false
		}
		e, live := snap[key]
		if !live {
			// The latest write was a delete: propagate the tombstone.
			if err := tryN(resyncAttempts, func() error { return rs.members[i].TryDeleteUntil(key, Deadline{}) }); err != nil {
				hardFails++
				continue
			}
		} else {
			lease := bufpool.Get(e.size)
			buf := lease.Bytes()
			if !rs.readVerified(key, e, i, buf) {
				lease.Release()
				continue // no intact donor right now; retry next round
			}
			err := tryN(resyncAttempts, func() error { return rs.members[i].TryPushUntil(key, buf, Deadline{}) })
			lease.Release()
			if err != nil {
				hardFails++
				continue
			}
		}
		rs.mu.Lock()
		cur, liveNow := rs.vers[key]
		if liveNow == live && (!live || cur.ver == e.ver) {
			delete(rs.missed[i], key)
			rs.rstats.resyncedKeys.Add(1)
		}
		rs.mu.Unlock()
	}
	rs.mu.Lock()
	drained := len(rs.missed[i]) == 0
	rs.mu.Unlock()
	return drained
}

// readVerified fetches key into the caller-owned buf (len(buf) == e.size)
// from the healthiest donor that is not replica `exclude`, verifying the
// payload against the recorded version. Donors serving corrupt bytes are
// counted and skipped (they will be repaired by their own read path). On
// a false return buf's contents are unspecified. The mutex is held only
// around breaker/missed-set bookkeeping, never across the fetch itself.
func (rs *ReplicaSet) readVerified(key uint64, e blobVer, exclude int, buf []byte) bool {
	rs.mu.Lock()
	order := rs.readOrderLocked(key, exclude)
	rs.mu.Unlock()
	for _, d := range order {
		var found bool
		var err error
		for a := 0; a < resyncAttempts; a++ {
			found, err = rs.members[d].TryFetchUntil(key, buf, Deadline{})
			if err == nil || corruptAtRest(err) {
				break
			}
		}
		rs.mu.Lock()
		if err != nil {
			if corruptAtRest(err) {
				rs.stats.checksum.Add(1)
				rs.missed[d][key] = struct{}{}
			} else {
				rs.failLocked(d)
			}
			rs.mu.Unlock()
			continue
		}
		rs.okLocked(d)
		if !found || remote.Checksum(buf) != e.crc {
			if found {
				rs.stats.checksum.Add(1)
			}
			rs.missed[d][key] = struct{}{}
			rs.mu.Unlock()
			continue
		}
		rs.mu.Unlock()
		return true
	}
	return false
}

// readOrderLocked returns candidate replica indices for serving key, in
// preference order: closed replicas that are caught up on the key first,
// then half-open ones, then — so a total quarantine cannot wedge the
// system — everything else as a last resort. exclude (-1 for none) is
// omitted entirely.
func (rs *ReplicaSet) readOrderLocked(key uint64, exclude int) []int {
	order := make([]int, 0, len(rs.members))
	appendTier := func(pred func(i int) bool) {
		for i := range rs.members {
			if i == exclude {
				continue
			}
			already := false
			for _, j := range order {
				if j == i {
					already = true
					break
				}
			}
			if !already && pred(i) {
				order = append(order, i)
			}
		}
	}
	caughtUp := func(i int) bool { _, m := rs.missed[i][key]; return !m }
	appendTier(func(i int) bool { return rs.brk[i].state == BreakerClosed && caughtUp(i) })
	appendTier(func(i int) bool { return rs.brk[i].state == BreakerHalfOpen && caughtUp(i) })
	appendTier(func(i int) bool { return true })
	return order
}

// failLocked records a non-integrity failure on replica i, opening its
// breaker at the consecutive-failure threshold.
func (rs *ReplicaSet) failLocked(i int) {
	b := &rs.brk[i]
	b.consecFails++
	if b.state == BreakerClosed && b.consecFails >= rs.cfg.FailureThreshold {
		b.state = BreakerOpen
		b.deadline = rs.retryAt()
		rs.rstats.breakerOpens.Add(1)
	} else if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.deadline = rs.retryAt()
	}
}

// okLocked records a success on replica i.
func (rs *ReplicaSet) okLocked(i int) {
	rs.brk[i].consecFails = 0
}

// TryFetchUntil implements ErrorTransport: the read is served by the
// preferred healthy replica, failing over down the candidate list inside
// the remaining budget — one blocking leg at a time. Every found
// payload is verified against the version record; replicas serving
// corrupt, stale, or unexpectedly absent data are repaired from the
// healthy copy before the (correct) result is returned. The deadline
// propagates to every member leg; once it expires the failover walk stops
// with ErrDeadlineExceeded instead of grinding down the candidate list.
// An overload reject from a member is backpressure, not failure: the
// read fails over past that replica without charging its breaker.
func (rs *ReplicaSet) TryFetchUntil(key uint64, dst []byte, dl Deadline) (bool, error) {
	rs.advance()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	start := clockNow(rs.cfg.Clock)
	e, tracked := rs.vers[key]
	verify := tracked && e.size == len(dst)
	order := rs.readOrderLocked(key, -1)
	var bad []int // replicas to repair from the healthy copy
	var firstErr error
	for n, i := range order {
		if dl.Expired() {
			err := errDeadline("replica failover budget exhausted")
			rs.stats.record(err)
			return false, err
		}
		if n > 0 {
			rs.rstats.failovers.Add(1)
		}
		found, err := rs.members[i].TryFetchUntil(key, dst, dl)
		if err != nil {
			if isOverloaded(err) {
				// Backpressure from this member's server: skip it
				// without a breaker count — it is alive, just shedding.
				rs.stats.overloads.Add(1)
				if firstErr == nil {
					firstErr = err
				}
			} else if isDeadline(err) {
				rs.stats.record(err)
				return false, err
			} else if corruptAtRest(err) {
				// The node reports its blob corrupt/truncated (alive,
				// so the breaker is untouched) — repair it below. A
				// payload damaged on the wire is the else: the link's
				// fault, counted against the breaker.
				rs.stats.checksum.Add(1)
				bad = append(bad, i)
			} else {
				rs.failLocked(i)
				if firstErr == nil {
					firstErr = err
				}
			}
			continue
		}
		rs.okLocked(i)
		if found {
			if verify && remote.Checksum(dst) != e.crc {
				// Corrupt in flight above the wire CRC, or stale at
				// rest: detected end to end, never surfaced.
				rs.stats.checksum.Add(1)
				bad = append(bad, i)
				continue
			}
		} else if tracked {
			// The replica lost a blob it acked (e.g. restarted empty):
			// absence is corruption when a version is on record.
			bad = append(bad, i)
			continue
		}
		rs.repairLocked(key, dst, found, bad)
		if n > 0 && rs.failoverHist != nil {
			rs.failoverHist.Observe(clockNow(rs.cfg.Clock) - start)
		}
		return found, nil
	}
	if firstErr == nil {
		firstErr = fmt.Errorf("%w: no replica could serve key %d intact", ErrIntegrity, key)
	}
	return false, firstErr
}

// repairLocked overwrites every replica in bad with the verified payload
// (or deletes, for a verified-absent key), so corruption and staleness are
// healed in place instead of lingering until the next outage.
func (rs *ReplicaSet) repairLocked(key uint64, good []byte, found bool, bad []int) {
	for _, i := range bad {
		if err := rs.writeTo(i, key, good, found, Deadline{}); err != nil {
			// Leave it recorded as missed; resync will replay it.
			rs.missed[i][key] = struct{}{}
			continue
		}
		delete(rs.missed[i], key)
		rs.rstats.readRepairs.Add(1)
	}
}

// TryPushUntil implements ErrorTransport: record the new version and
// write it through the fan-out.
func (rs *ReplicaSet) TryPushUntil(key uint64, src []byte, dl Deadline) error {
	return rs.write(key, src, true, dl)
}

// TryDeleteUntil implements ErrorTransport: a delete is a write of a
// tombstone — the version record dropped, then the same fan-out.
func (rs *ReplicaSet) TryDeleteUntil(key uint64, dl Deadline) error {
	return rs.write(key, nil, false, dl)
}

// writeTo sends one write to replica i: src when live, the tombstone (a
// delete) otherwise.
func (rs *ReplicaSet) writeTo(i int, key uint64, src []byte, live bool, dl Deadline) error {
	if live {
		return rs.members[i].TryPushUntil(key, src, dl)
	}
	return rs.members[i].TryDeleteUntil(key, dl)
}

// write records a write of key — a new version of src when live, the
// tombstone otherwise — fans it to every closed replica, marks the rest
// missed, and succeeds when the ack quorum is met, the fan-out bounded by
// dl. Once the budget expires, remaining members are marked missed (resync
// replays the write later) instead of being written past the deadline; a
// quorum shortfall caused by the deadline surfaces as ErrDeadlineExceeded.
// An overload reject marks the member missed without charging its breaker.
func (rs *ReplicaSet) write(key uint64, src []byte, live bool, dl Deadline) error {
	rs.advance()
	rs.mu.Lock()
	defer rs.mu.Unlock()
	what := "delete"
	if live {
		what = "write"
		e := rs.vers[key]
		e.ver++
		e.crc = remote.Checksum(src)
		e.size = len(src)
		rs.vers[key] = e
	} else {
		delete(rs.vers, key)
	}
	acks := 0
	expired := false
	var firstErr error
	for i := range rs.members {
		if rs.brk[i].state != BreakerClosed {
			rs.missed[i][key] = struct{}{}
			continue
		}
		if dl.Expired() {
			expired = true
			rs.missed[i][key] = struct{}{}
			continue
		}
		if err := rs.writeTo(i, key, src, live, dl); err != nil {
			if isOverloaded(err) {
				rs.stats.overloads.Add(1)
			} else if isDeadline(err) {
				expired = true
			} else {
				rs.failLocked(i)
			}
			rs.missed[i][key] = struct{}{}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rs.okLocked(i)
		delete(rs.missed[i], key)
		acks++
	}
	if acks >= rs.cfg.Quorum {
		return nil
	}
	rs.rstats.quorumFails.Add(1)
	if expired {
		err := fmt.Errorf("%w: %s quorum %d/%d", ErrDeadlineExceeded, what, acks, rs.cfg.Quorum)
		rs.stats.record(err)
		return err
	}
	if firstErr != nil {
		return fmt.Errorf("%w: %s quorum %d/%d (first failure: %v)", ErrRemoteUnavailable, what, acks, rs.cfg.Quorum, firstErr)
	}
	return fmt.Errorf("%w: %s quorum %d/%d", ErrRemoteUnavailable, what, acks, rs.cfg.Quorum)
}

var _ ErrorTransport = (*ReplicaSet)(nil)
