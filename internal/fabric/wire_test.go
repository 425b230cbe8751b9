package fabric

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"trackfm/internal/remote"
)

// Hand-built frames (see the table in tcp.go) for tests that speak to a
// Server, or answer a TCPTransport, over a raw socket.

func helloFrame(version uint32) []byte {
	h := make([]byte, helloLen)
	h[0] = opHello
	binary.BigEndian.PutUint64(h[1:9], helloMagic)
	binary.BigEndian.PutUint32(h[9:13], version)
	return h
}

func helloReply(gen uint64, durable bool) []byte {
	r := make([]byte, helloReplyLen)
	r[0], r[1] = ackHello, protoVersion
	if durable {
		r[2] = helloGenDurable
	}
	binary.BigEndian.PutUint64(r[3:], gen)
	return r
}

func reqFrame(op byte, key uint64, length uint32, deadlineNs uint64) []byte {
	h := make([]byte, hdrLen)
	h[0] = op
	binary.BigEndian.PutUint64(h[1:9], key)
	binary.BigEndian.PutUint32(h[9:13], length)
	binary.BigEndian.PutUint64(h[13:], deadlineNs)
	return h
}

func pushFrame(key, deadlineNs uint64, payload []byte) []byte {
	f := append(reqFrame(opPush, key, uint32(len(payload)), deadlineNs), payload...)
	return binary.BigEndian.AppendUint32(f, payloadCRC(payload))
}

// corruptTrailer returns a copy of a push frame with a bit of its CRC
// trailer flipped, as damage in flight would leave it.
func corruptTrailer(push []byte) []byte {
	f := slices.Clone(push)
	f[len(f)-1] ^= 0xFF
	return f
}

// dialRaw opens a socket to a Server and completes the hello exchange on
// it. The socket is closed with the test and reads on it give up after 2 s.
func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write(helloFrame(protoVersion)); err != nil {
		t.Fatalf("write hello: %v", err)
	}
	reply := make([]byte, helloReplyLen)
	if _, err := io.ReadFull(conn, reply); err != nil {
		t.Fatalf("read hello reply: %v", err)
	}
	if !bytes.Equal(reply, helloReply(0, false)) {
		t.Fatalf("hello answered % x", reply)
	}
	return conn
}

// sendRaw writes frame to a raw socket and reads the first byte of the
// answer; err is io.EOF when the server hung up instead of answering.
func sendRaw(t *testing.T, conn net.Conn, frame []byte) (byte, error) {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatalf("write: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var b [1]byte
	_, err := io.ReadFull(conn, b[:])
	return b[0], err
}

// flipConn corrupts the CRC trailer of the next push frame written while
// armed (a frame is one Write, see TestTCPOneSyscallPerFrame).
type flipConn struct {
	net.Conn
	armed *atomic.Bool
}

func (c flipConn) Write(p []byte) (int, error) {
	if p[0] == opPush && len(p) > hdrLen && c.armed.CompareAndSwap(true, false) {
		p = corruptTrailer(p)
	}
	return c.Conn.Write(p)
}

// TestTCPFirstHelloCutOff: a transport whose very first hello meets a
// closing server must come back on the one wire format — integrity
// trailers, deadlines and the peer's identity included — once a server is
// there again. (It used to take the hang-up for a peer too old to know the
// hello and speak a CRC-less, deadline-less dialect for the rest of its
// life.)
func TestTCPFirstHelloCutOff(t *testing.T) {
	srv := NewServer(remote.NewStore())
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	tr, err := DialWith(addr, fastRetry())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer tr.Close()
	var flip atomic.Bool
	tr.dial = func(network, addr string, timeout time.Duration) (net.Conn, error) {
		conn, err := net.DialTimeout(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return flipConn{conn, &flip}, nil
	}

	srv.Close() // before the transport's first operation, so before its first hello
	store := remote.NewStore()
	srv2 := NewServer(store)
	srv2.SetGeneration(7, true)
	if _, err := srv2.ListenAndServe(addr); err != nil {
		t.Fatalf("restart ListenAndServe: %v", err)
	}
	defer srv2.Close()

	// The socket Dial made never said its hello, so the hang-up is not
	// resent below the caller: the first attempt may fail, with a
	// connection error and nothing else, and the next one dials afresh.
	payload := []byte("first hello cut off")
	if err := tr.TryPushUntil(1, payload, Deadline{}); err != nil && !errors.Is(err, ErrRemoteUnavailable) {
		t.Fatalf("push over the cut-off socket = %v, want nil or ErrRemoteUnavailable", err)
	}
	mustPush(t, tr, 1, payload)
	dst := make([]byte, len(payload))
	if !mustFetch(t, tr, 1, dst) || !bytes.Equal(dst, payload) {
		t.Fatalf("fetch = %q, want %q", dst, payload)
	}
	if gen, durable := tr.PeerIdentity(); gen != 7 || !durable {
		t.Errorf("PeerIdentity = (%d, %v), want (7, true)", gen, durable)
	}
	if got := srv2.Stats().Hellos(); got < 1 {
		t.Errorf("server Hellos = %d, want >= 1", got)
	}

	// A push damaged in flight is refused by the server, never stored, and
	// reported as ErrIntegrity; the caller's re-issue stores the intact bytes.
	flip.Store(true)
	if err := tr.TryPushUntil(2, payload, Deadline{}); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corrupted push = %v, want ErrIntegrity", err)
	}
	if flip.Load() {
		t.Fatal("no push frame went through the corrupting dialer")
	}
	if got := srv2.Stats().WireRejects(); got != 1 {
		t.Errorf("WireRejects = %d after one corrupted push, want 1", got)
	}
	if mustFetch(t, tr, 2, dst) {
		t.Errorf("the corrupted push was stored: %q", dst)
	}
	mustPush(t, tr, 2, payload)
	if !mustFetch(t, tr, 2, dst) || !bytes.Equal(dst, payload) {
		t.Errorf("the re-issued push = %q, want %q", dst, payload)
	}
}

// TestServerRequiresLeadingHello: a connection whose first frame is not a
// hello is dropped before anything reaches the store, and a hello after the
// first frame — here one offering the long-gone version 1, which had no
// trailers — cannot talk the server out of checking them: it is refused
// like any other unknown opcode.
func TestServerRequiresLeadingHello(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	// A well-formed version-1 push: 13-byte header, payload, no trailer.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	v1push := append(reqFrame(opPush, 5, 4, 0)[:helloLen], 1, 2, 3, 4)
	if ack, err := sendRaw(t, conn, v1push); err != io.EOF {
		t.Fatalf("a hello-less push was answered %#x, %v; want the connection closed", ack, err)
	}
	if bad, n := srv.Stats().BadFrames(), store.Len(); bad != 1 || n != 0 {
		t.Fatalf("after a hello-less push: badFrames = %d, store holds %d blobs; want 1 and 0", bad, n)
	}

	// After a good hello, trailers are checked ...
	conn = dialRaw(t, addr)
	bad := corruptTrailer(pushFrame(5, 0, []byte{1, 2, 3, 4}))
	if ack, err := sendRaw(t, conn, bad); err != nil || ack != ackCorrupt {
		t.Fatalf("corrupt-trailer push answered %#x, %v; want ackCorrupt", ack, err)
	}
	// ... and a second hello does not switch that off: the connection is
	// dropped, the corrupt push behind it is never served.
	if ack, err := sendRaw(t, conn, slices.Concat(helloFrame(1), bad)); err != io.EOF {
		t.Fatalf("a hello in mid-stream was answered %#x, %v; want the connection closed", ack, err)
	}
	if bad, n := srv.Stats().BadFrames(), store.Len(); bad != 2 || n != 0 {
		t.Fatalf("after a mid-stream hello: badFrames = %d, store holds %d blobs; want 2 and 0", bad, n)
	}
}

// TestCorruptBlobKeepsStreamInSync: a fetch of a blob corrupt at rest is
// answered ackCorrupt, and the fetches written behind it on the same
// connection still get their own replies, byte for byte. The store copies
// a blob into the writer's free space before verifying it, so the refused
// reply's bytes are left there; the one-byte refusal must take the reply's
// place and leave nothing of it on the wire. Run at 4 KiB and at
// MaxPayload, where every reply but the first needs a flush to fit.
func TestCorruptBlobKeepsStreamInSync(t *testing.T) {
	for _, size := range []int{4096, MaxPayload} {
		t.Run(fmt.Sprint(size), func(t *testing.T) {
			store := remote.NewStore()
			srv := NewServer(store)
			addr, err := srv.ListenAndServe("127.0.0.1:0")
			if err != nil {
				t.Fatalf("ListenAndServe: %v", err)
			}
			defer srv.Close()
			good := make([]byte, size)
			keyedPayload(good, 1, 1)
			store.Put(1, good)
			store.Put(2, good)
			if !store.FlipByte(2, size/2) {
				t.Fatal("FlipByte: key 2 not stored")
			}
			conn := dialRaw(t, addr)
			fetch := func(key uint64) []byte { return reqFrame(opFetch, key, uint32(size), 0) }
			if _, err := conn.Write(slices.Concat(fetch(2), fetch(1), fetch(2), fetch(1))); err != nil {
				t.Fatalf("write: %v", err)
			}
			want := binary.BigEndian.AppendUint32(append([]byte{flagFound}, good...), payloadCRC(good))
			reply := make([]byte, len(want))
			for i := range 4 {
				n := 1
				if i%2 == 1 {
					n = len(want)
				}
				if _, err := io.ReadFull(conn, reply[:n]); err != nil {
					t.Fatalf("reply %d: %v", i, err)
				}
				if i%2 == 0 && reply[0] != ackCorrupt {
					t.Fatalf("fetch of the corrupt blob answered %#x, want ackCorrupt", reply[0])
				}
				if i%2 == 1 && !bytes.Equal(reply, want) {
					t.Fatalf("reply %d to a fetch of the intact blob differs from the blob", i)
				}
			}
			if got := srv.Stats().CorruptBlobs(); got != 2 {
				t.Errorf("CorruptBlobs = %d, want 2", got)
			}
		})
	}
}

// TestClientRefusesOtherVersion: a peer that answers the hello with any
// version but the one this client speaks is a permanent ErrProtocol, not
// retried and not negotiated down to.
func TestClientRefusesOtherVersion(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				io.ReadFull(c, make([]byte, helloLen))
				c.Write([]byte{ackHello, protoVersion - 1})
				io.Copy(io.Discard, c)
			}()
		}
	}()
	tr, err := DialWith(ln.Addr().String(), fastRetry())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer tr.Close()
	if err := tr.TryPushUntil(1, []byte{1}, Deadline{}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("push to a version-%d peer = %v, want ErrProtocol", protoVersion-1, err)
	}
	if got := tr.Stats().Retries(); got != 0 {
		t.Fatalf("Retries = %d: a permanent error was retried", got)
	}
}

// TestHelloAdvertisesIdentity pins the hello exchange: a server with a
// generation installed hands it (and the durable bit) to the client, and a
// server without one advertises nothing, in a reply of the same length.
func TestHelloAdvertisesIdentity(t *testing.T) {
	srv := NewServer(remote.NewStore())
	srv.SetGeneration(7, true)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	tr, err := DialWith(addr, fastRetry())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer tr.Close()
	if err := tr.TryPushUntil(1, []byte("x"), Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	if got := srv.Stats().Hellos(); got != 1 {
		t.Fatalf("server Hellos = %d after one connection's first op, want 1", got)
	}
	gen, durable := tr.PeerIdentity()
	if gen != 7 || !durable {
		t.Fatalf("PeerIdentity = (%d, %v), want (7, true)", gen, durable)
	}

	srv2 := NewServer(remote.NewStore()) // no SetGeneration: nothing advertised
	addr2, err := srv2.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv2.Close()
	tr2, err := DialWith(addr2, fastRetry())
	if err != nil {
		t.Fatalf("DialWith: %v", err)
	}
	defer tr2.Close()
	if err := tr2.TryPushUntil(1, []byte("x"), Deadline{}); err != nil {
		t.Fatalf("TryPush: %v", err)
	}
	if gen, durable := tr2.PeerIdentity(); gen != 0 || durable {
		t.Fatalf("PeerIdentity = (%d, %v), want (0, false)", gen, durable)
	}
}
