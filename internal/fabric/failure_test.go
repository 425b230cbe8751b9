package fabric

import (
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"trackfm/internal/remote"
)

// Failure injection: the TCP transport must report a typed error rather
// than corrupt data or hang when the remote node misbehaves or dies.

func TestDialFailure(t *testing.T) {
	// A port nobody listens on: grab one and close it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	if _, err := Dial(addr); err == nil {
		t.Fatalf("Dial to closed port succeeded")
	}
}

func TestServerSurvivesGarbageClient(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	// Clients that say hello and then speak garbage: an unknown opcode, an
	// absurd payload length, a half-written request (header only, missing
	// payload) — and one that never says hello at all.
	for _, garbage := range [][]byte{
		slices.Concat(helloFrame(protoVersion), reqFrame(0xFF, 0, 0, 0)),
		slices.Concat(helloFrame(protoVersion), reqFrame(opPush, 1, 0xFFFFFFFF, 0)),
		slices.Concat(helloFrame(protoVersion), reqFrame(opPush, 1, 8, 0)),
		{0xFF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		conn.Write(garbage)
		conn.Close()
	}

	// The server must still serve well-formed clients.
	tr, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial after garbage clients: %v", err)
	}
	defer tr.Close()
	mustPush(t, tr, 7, []byte{42})
	dst := make([]byte, 1)
	if !mustFetch(t, tr, 7, dst) || dst[0] != 42 {
		t.Fatalf("server corrupted by garbage clients")
	}
}

// TestServerShutdownDrains pins the graceful half of crash consistency: a
// draining server finishes and acks in-flight requests before hanging up,
// refuses new connections, and Shutdown returns once the drain completes.
// Every push the client saw acked must be in the store afterwards.
func TestServerShutdownDrains(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	tr, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()

	// A concurrent pusher: once the drain starts its connection is hung up
	// after the current frame and reconnects are refused, so it stops with
	// a transport error — but every ack it collected must be durable in
	// the store.
	acked := make(chan uint64, 1024)
	pushErr := make(chan error, 1)
	go func() {
		defer close(acked)
		for k := uint64(0); ; k++ {
			if err := tr.TryPushUntil(k, []byte(fmt.Sprintf("payload-%d", k)), Deadline{}); err != nil {
				pushErr <- err
				return
			}
			acked <- k
		}
	}()
	<-acked // at least one op in flight before the drain begins

	if err := srv.Shutdown(2 * time.Second); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-pushErr; err == nil {
		t.Fatalf("pusher kept succeeding after drain")
	}
	for k := range acked {
		dst := make([]byte, len(fmt.Sprintf("payload-%d", k)))
		if found, err := store.Get(k, dst); err != nil || !found {
			t.Fatalf("acked key %d lost across drain: found=%v err=%v", k, found, err)
		}
	}

	// The drained server refuses new work entirely.
	if _, err := Dial(addr); err == nil {
		t.Fatalf("dial succeeded after shutdown")
	}
	if err := srv.Shutdown(time.Second); err != ErrClosed {
		t.Fatalf("second Shutdown: err=%v, want ErrClosed", err)
	}
}
