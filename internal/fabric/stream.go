package fabric

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// The prefetch stream: TCPTransport's AsyncFetcher. One connection, checked
// out of the transport's pool on first use and kept, carries every
// speculative fetch. Requests are written ahead of their replies; the
// server answers a connection's requests in order, so the n-th reply
// belongs to the n-th request and neither a tag on the wire nor a
// connection per prefetch is needed, and no depth can exhaust the pool.
// There is no goroutine: a reply is read by whoever waits for it (or for a
// later one), straight into the dst its StartFetch named. Requests go out
// a window at a time: one write carries every request started since the
// stream last went idle (see StartFetch for the flush rule).
//
// StreamRing is how many tickets may be outstanding at once. When the ring
// is full StartFetch fetches synchronously on the demand path. It is
// exported because it is the one statement of how many fetches may be in
// flight: a prefetcher sizes its own window from it (aifm's pending
// window), so that window never meets a full ring and never leaves part of
// the ring unused.
const StreamRing = 16

const (
	slotFree   = uint8(iota)
	slotIssued // request buffered or sent, reply not yet read
	slotDone   // reply read (or the stream failed): result waits for its Wait
)

// streamSlot is one outstanding ticket. Ticket seq lives in slot
// seq % StreamRing from StartFetch until its Wait.
type streamSlot struct {
	dst   []byte
	seq   uint64
	state uint8
	found bool
	err   error
}

// fetchStream is the stream's state, all of it under mu. mu is held across
// the stream's own socket reads and writes — that is what serializes them —
// and across nothing else's; the transport's leaf mu is taken inside it for
// the same three steps do() takes it for (publish a dialed socket, record a
// hello, drop sockets), and nothing takes mu while holding the transport's.
type fetchStream struct {
	t  *TCPTransport
	mu sync.Mutex
	c  *wireConn // nil until the first StartFetch; never released

	// Tickets are numbered in issue order: seqs below recvd have their
	// reply, seqs below sent have their request on the wire, issued is the
	// next seq. recvd <= sent <= issued.
	issued, sent, recvd uint64
	armed               time.Time // when the socket deadline was last set
	ring                [StreamRing]streamSlot
}

// StartFetch implements AsyncFetcher: the request joins the prefetch
// stream and the reply is collected by the ticket's Wait. The stream is
// flushed only when nothing is in flight — no reply is on its way whose
// reading would be the moment to send more — so the requests started
// while a window's replies are read go out together, as one write, once
// the last of them has been read: a depth-8 loop sends 8 requests a write.
// Wait flushes a request it finds still unsent, so depth 1 overlaps and no
// Wait blocks on an unsent request. A pipelined fetch carries no deadline
// and is never retried: a ticket that fails is the demand path's to
// recover. Dial and hello failures are returned here; anything later is
// the ticket's.
func (t *TCPTransport) StartFetch(key uint64, dst []byte) (Ticket, error) {
	if len(dst) > MaxPayload {
		return Ticket{}, fmt.Errorf("%w: fetch of %d bytes", ErrPayloadTooLarge, len(dst))
	}
	s := &t.stream
	s.mu.Lock()
	slot := &s.ring[s.issued%StreamRing]
	if slot.state != slotFree {
		s.mu.Unlock()
		found, err := t.TryFetchUntil(key, dst, Deadline{})
		return Ticket{found: found}, err
	}
	defer s.mu.Unlock()
	if err := s.connect(); err != nil {
		return Ticket{}, err
	}
	*slot = streamSlot{dst: dst, seq: s.issued, state: slotIssued}
	s.issued++
	t.stats.pipelined.Add(1)
	err := s.c.writeHeader(opFetch, key, len(dst))
	if err == nil && s.sent == s.recvd {
		err = s.flush()
	}
	if err != nil {
		s.fail(err) // this ticket's too: its Wait reports it
	}
	return Ticket{s: s, seq: slot.seq}, nil
}

// connect makes sure the stream holds a live connection that has said its
// hello. Caller holds s.mu.
func (s *fetchStream) connect() error {
	t := s.t
	if s.c == nil {
		c, err := t.checkout()
		if err != nil {
			return err
		}
		s.c = c
	}
	if t.closed.Load() {
		return s.fail(ErrClosed)
	}
	if s.c.helloed {
		return nil
	}
	err := t.ensureConn(s.c)
	if err == nil {
		err = t.ensureHello(s.c)
	}
	if err != nil {
		err = classify(err)
		t.stats.record(err)
		return err
	}
	s.armed = time.Time{}
	return nil
}

// arm pushes the socket deadline out to a full OpTimeout from now, at most
// once per half OpTimeout: every read and write of the stream then has at
// least half an OpTimeout to finish, without a deadline update per frame.
func (s *fetchStream) arm() {
	if now := time.Now(); now.Sub(s.armed) > s.t.opTimeout/2 {
		s.c.conn.SetDeadline(now.Add(s.t.opTimeout))
		s.armed = now
	}
}

// flush writes the unsent requests to the socket.
func (s *fetchStream) flush() error {
	s.arm()
	if err := s.c.w.Flush(); err != nil {
		return err
	}
	s.sent = s.issued
	s.t.stats.streamFlushes.Add(1)
	return nil
}

// receive reads the next reply in order into its ticket's dst. A reply
// that refuses its one request fails that ticket and the stream goes on;
// anything that leaves the connection unframed fails the stream.
func (s *fetchStream) receive() {
	slot := &s.ring[s.recvd%StreamRing]
	s.arm()
	found, inSync, err := s.c.readFetchReply(slot.dst)
	if err != nil && !inSync {
		s.fail(err)
		return
	}
	s.recvd++
	slot.state, slot.found, slot.err = slotDone, found, err
	s.t.stats.record(err)
}

// fail ends the stream's connection: every ticket still waiting for a
// reply fails with err, classified and recorded once, the socket is
// dropped (the next StartFetch re-dials and says hello again) and, when
// the peer hung up, so are the idle ones — exactly what do() does when an
// exchange fails. On a closed transport the cause is Close, whatever the
// interrupted I/O reported. Returns the error the tickets got.
func (s *fetchStream) fail(err error) error {
	t := s.t
	if t.closed.Load() {
		err = permanent(ErrClosed)
	} else {
		err = classify(err)
		t.stats.record(err)
	}
	for seq := s.recvd; seq < s.issued; seq++ {
		slot := &s.ring[seq%StreamRing]
		slot.state, slot.err = slotDone, err
	}
	s.recvd, s.sent = s.issued, s.issued
	t.mu.Lock()
	t.drop(s.c)
	if errors.Is(err, ErrRemoteUnavailable) || isShortRead(err) {
		t.dropIdle()
	}
	t.mu.Unlock()
	return err
}

// wait completes ticket seq: it reads replies, in order, up to seq's —
// each into its own ticket's dst, so the earlier tickets' Waits return at
// once — and frees the slot.
func (s *fetchStream) wait(seq uint64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	slot := &s.ring[seq%StreamRing]
	if slot.state == slotFree || slot.seq != seq {
		panic("fabric: Ticket.Wait called twice")
	}
	for slot.state == slotIssued {
		switch {
		case s.t.closed.Load():
			s.fail(ErrClosed)
		case seq >= s.sent:
			if err := s.flush(); err != nil {
				s.fail(err)
			}
		default:
			s.receive()
		}
	}
	found, err := slot.found, slot.err
	*slot = streamSlot{}
	return found, err
}
