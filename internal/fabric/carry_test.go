package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"trackfm/internal/remote"
)

// keyedPushes returns n 4 KiB pushes of keys from, from+1, … at version ver.
func keyedPushes(from, n int, ver uint64) []Push {
	pushes := make([]Push, n)
	for i := range pushes {
		buf := make([]byte, 4096)
		keyedPayload(buf, uint64(from+i), ver)
		pushes[i] = Push{Key: uint64(from + i), Src: buf}
	}
	return pushes
}

// checkStored fails the test unless store holds every push's payload.
func checkStored(t *testing.T, store *remote.Store, pushes []Push, ver uint64) {
	t.Helper()
	buf := make([]byte, 4096)
	for _, p := range pushes {
		if found, err := store.Get(p.Key, buf); err != nil || !found {
			t.Errorf("key %d on the server: found %v, %v", p.Key, found, err)
		} else if err := checkKeyedPayload(buf, p.Key, ver); err != nil {
			t.Error(err)
		}
	}
}

// frameConn edits, once while armed, the k-th request frame of the first
// Write that holds that many: what one damaged or oddly budgeted frame in
// the middle of an exchange looks like to the server. (An exchange that
// fits the write buffer is one Write, see TestCarryIsOneWriteOneFlush.)
type frameConn struct {
	net.Conn
	k     int
	edit  func(frame []byte)
	armed *atomic.Bool
}

func (c frameConn) Write(p []byte) (int, error) {
	if c.armed.Load() {
		for k, rest := 0, p; len(rest) >= hdrLen && rest[0] != opHello; k++ {
			n := hdrLen
			if rest[0] == opPush {
				n += int(binary.BigEndian.Uint32(rest[9:13])) + crcLen
			}
			if n > len(rest) {
				break
			}
			if k == c.k && c.armed.CompareAndSwap(true, false) {
				c.edit(rest[:n])
			}
			rest = rest[n:]
		}
	}
	return c.Conn.Write(p)
}

// dialThrough makes tr's next connections come from wrap, dropping the one
// Dial made.
func dialThrough(tr *TCPTransport, wrap func(net.Conn) net.Conn) {
	tr.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return wrap(conn), nil
	}
	tr.mu.Lock()
	tr.dropIdle()
	tr.mu.Unlock()
}

// TestCarryIsOneWriteOneFlush: three pushes and the fetch behind them are
// one write on the client, and four frames answered in one flush on the
// server; so is a full write-behind window (far's wbWindow: eight 4 KiB
// pushes, 33 KB with the fetch behind them), which the wire buffers are
// sized for; three pushes on their own likewise. That is the whole point
// of a carried push: it costs the exchange no syscall and no wake-up.
func TestCarryIsOneWriteOneFlush(t *testing.T) {
	store := keyedStore(t, 8)
	srv, tr := serveAndDial(t, store)
	var cr, cw atomic.Int64
	dialThrough(tr, func(c net.Conn) net.Conn { return countingConn{c, &cr, &cw} })
	buf := make([]byte, 4096)
	mustFetch(t, tr, 7, buf) // carries the hello

	for i, n := range []int{3, 8} {
		pushes := keyedPushes(100*(i+1), n, 2)
		w0, frames, flushes := cw.Load(), srv.Stats().Frames(), srv.Stats().Flushes()
		found, pushed, err := tr.TryFetchAfterPushes(pushes, 5, buf, Deadline{})
		if err != nil || pushed != nil || !found {
			t.Fatalf("TryFetchAfterPushes = %v, pushes %v, fetch %v", found, pushed, err)
		}
		if err := checkKeyedPayload(buf, 5, 1); err != nil {
			t.Error(err)
		}
		checkStored(t, store, pushes, 2)
		if w := cw.Load() - w0; w != 1 {
			t.Errorf("%d pushes + fetch: %d client writes, want 1", n, w)
		}
		if f, fl := srv.Stats().Frames()-frames, srv.Stats().Flushes()-flushes; f != uint64(n+1) || fl != 1 {
			t.Errorf("%d pushes + fetch: server served %d frames in %d flushes, want %d in 1", n, f, fl, n+1)
		}
	}

	pushes := keyedPushes(300, 3, 3)
	w0, frames, flushes := cw.Load(), srv.Stats().Frames(), srv.Stats().Flushes()
	if err := tr.TryPushAll(pushes, Deadline{}); err != nil {
		t.Fatalf("TryPushAll: %v", err)
	}
	checkStored(t, store, pushes, 3)
	if w := cw.Load() - w0; w != 1 {
		t.Errorf("3 pushes: %d client writes, want 1", w)
	}
	if f, fl := srv.Stats().Frames()-frames, srv.Stats().Flushes()-flushes; f != 3 || fl != 1 {
		t.Errorf("3 pushes: server served %d frames in %d flushes, want 3 in 1", f, fl)
	}
	if err := tr.TryPushAll(nil, Deadline{}); err != nil {
		t.Errorf("TryPushAll of nothing: %v", err)
	}
	// Carried = rode ahead of another request: 3 and 8 with the fetches, 2
	// of the 3 pushed together (the last is that exchange's own request).
	if st := tr.Stats(); st.CarriedPushes() != 13 || st.CarryExchanges() != 3 || st.Retries() != 0 {
		t.Errorf("carriedPushes = %d, carryExchanges = %d, retries = %d; want 13, 3, 0",
			st.CarriedPushes(), st.CarryExchanges(), st.Retries())
	}
}

// TestCarryRefusalMidExchange: push k of the three carried ahead of a
// fetch is refused with one byte — shed by admission control, or its CRC
// trailer rejected — at the head, in the middle, and as the last push
// before the fetch. The client reads the other acks and the reply behind
// the refusal in order and keeps the connection; the refusal fails the
// pushes alone, after one attempt, and the fetch is served. The caller's
// re-issue of the pushes (the far engine's next exchange) goes through on
// the same connection. Nothing is lost and nothing is delivered to the
// wrong place.
func TestCarryRefusalMidExchange(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(frame []byte)
		want error
		errs func(*Stats) uint64
		srv  func(*ServerStats) uint64
	}{
		// The primed controller believes service takes a second: a frame
		// with a nanosecond to live is infeasible, one with no deadline is not.
		{"shed", func(f []byte) { binary.BigEndian.PutUint64(f[13:hdrLen], 1) },
			ErrOverloaded, (*Stats).Overloads, (*ServerStats).Sheds},
		{"trailer rejected", func(f []byte) { f[len(f)-1] ^= 0xFF },
			ErrIntegrity, (*Stats).ChecksumFaults, (*ServerStats).WireRejects},
	} {
		for _, k := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s, frame %d", tc.name, k), func(t *testing.T) {
				store := keyedStore(t, 8)
				srv, tr := serveAndDial(t, store)
				adm := srv.EnableAdmission(AdmissionConfig{})
				adm.Offer(0, 0)
				adm.Done(uint64(time.Second))
				var armed atomic.Bool
				dialThrough(tr, func(c net.Conn) net.Conn { return frameConn{c, k, tc.edit, &armed} })
				buf := make([]byte, 4096)
				mustFetch(t, tr, 7, buf)
				re := tr.Stats().Reconnects()

				armed.Store(true)
				pushes := keyedPushes(100, 3, 2) // with the fetch, one Write
				found, pushed, err := tr.TryFetchAfterPushes(pushes, 5, buf, Deadline{})
				if err != nil || !found || !errors.Is(pushed, tc.want) {
					t.Fatalf("refused TryFetchAfterPushes = %v, pushes %v, fetch %v; want the fetch served, the pushes %v", found, pushed, err, tc.want)
				}
				if armed.Load() {
					t.Fatal("no exchange went through the editing dialer")
				}
				if err := checkKeyedPayload(buf, 5, 1); err != nil {
					t.Error(err)
				}
				if err := tr.TryPushAll(pushes, Deadline{}); err != nil {
					t.Fatalf("re-issued TryPushAll = %v", err)
				}
				checkStored(t, store, pushes, 2)
				st := tr.Stats()
				if tc.errs(st) != 1 || st.Retries() != 0 || st.Reconnects() != re {
					t.Errorf("refusals seen = %d, resends = %d, reconnects = %d; want 1, 0, 0: one attempt, refused, on a connection that stays",
						tc.errs(st), st.Retries(), st.Reconnects()-re)
				}
				if got := tc.srv(srv.Stats()); got != 1 {
					t.Errorf("server refused %d frames, want 1", got)
				}
				// The same connection still delivers replies to their requests.
				for key := uint64(0); key < 4; key++ {
					mustFetch(t, tr, key, buf)
					if err := checkKeyedPayload(buf, key, 1); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
}

// TestCarryReplyCorruptionTearsDown: the fetch reply behind three acked
// pushes fails its checksum. Framing behind a damaged payload cannot be
// trusted, so — unlike a one-byte refusal — the connection is torn down:
// the attempt fails, and the caller's re-issue re-sends the pushes with the
// fetch over a fresh one.
func TestCarryReplyCorruptionTearsDown(t *testing.T) {
	store := keyedStore(t, 8)
	srv, tr := serveAndDial(t, store)
	var armed atomic.Bool
	armed.Store(true)
	pushes := keyedPushes(100, 3, 2)
	reply := 1 + 4096 + crcLen
	dialThrough(tr, func(c net.Conn) net.Conn {
		return &corruptingConn{Conn: c, at: helloReplyLen + reply + len(pushes) + 1 + 700, armed: &armed}
	})
	buf := make([]byte, 4096)
	mustFetch(t, tr, 7, buf) // the corrupting dialer's connection, one whole reply in
	frames, re := srv.Stats().Frames(), tr.Stats().Reconnects()
	if _, pushed, err := tr.TryFetchAfterPushes(pushes, 5, buf, Deadline{}); !errors.Is(err, ErrIntegrity) || !errors.Is(pushed, ErrIntegrity) {
		t.Fatalf("TryFetchAfterPushes with a corrupted reply = pushes %v, fetch %v; want ErrIntegrity for both", pushed, err)
	}
	if armed.Load() {
		t.Fatal("no reply went through the corrupting dialer")
	}
	found, pushed, err := tr.TryFetchAfterPushes(pushes, 5, buf, Deadline{})
	if err != nil || pushed != nil || !found {
		t.Fatalf("re-issued TryFetchAfterPushes = %v, pushes %v, fetch %v", found, pushed, err)
	}
	if err := checkKeyedPayload(buf, 5, 1); err != nil {
		t.Error(err)
	}
	checkStored(t, store, pushes, 2)
	if st := tr.Stats(); st.ChecksumFaults() != 1 || st.Retries() != 0 || st.Reconnects()-re != 1 {
		t.Errorf("checksumFaults = %d, resends = %d, reconnects = %d; want 1, 0, 1",
			st.ChecksumFaults(), st.Retries(), st.Reconnects()-re)
	}
	if got := srv.Stats().Frames() - frames; got != 2*(uint64(len(pushes))+1)+1 {
		t.Errorf("server served %d frames, want the exchange twice and the second socket's hello", got)
	}
}

// TestCarryPayloadTooLarge: an oversize push anywhere in a batch is refused
// before anything is written.
func TestCarryPayloadTooLarge(t *testing.T) {
	srv, tr := serveAndDial(t, remote.NewStore())
	frames := srv.Stats().Frames()
	pushes := []Push{{Key: 1, Src: make([]byte, 64)}, {Key: 2, Src: make([]byte, MaxPayload+1)}}
	if _, _, err := tr.TryFetchAfterPushes(pushes, 3, make([]byte, 64), Deadline{}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("TryFetchAfterPushes = %v, want ErrPayloadTooLarge", err)
	}
	if err := tr.TryPushAll(pushes, Deadline{}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Errorf("TryPushAll = %v, want ErrPayloadTooLarge", err)
	}
	if got := srv.Stats().Frames() - frames; got != 0 {
		t.Errorf("server saw %d frames of a refused batch", got)
	}
}
