package fabric

import (
	"net"
	"slices"
	"testing"

	"trackfm/internal/remote"
)

// Failure injection: the TCP transport must report a typed error rather
// than corrupt data or hang when the remote node misbehaves or dies.

func TestFetchAfterServerClose(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	tr, err := DialWith(addr, fastRetry())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer tr.Close()
	mustPush(t, tr, 1, []byte{1, 2, 3, 4})

	srv.Close()

	// Every operation after the close must fail, not panic or hang.
	if found, err := tr.TryFetchUntil(1, make([]byte, 4), Deadline{}); err == nil {
		t.Fatalf("fetch after server close = %v, nil", found)
	}
	if err := tr.TryPushUntil(2, []byte{5}, Deadline{}); err == nil {
		t.Fatalf("push after server close succeeded")
	}
	if err := tr.TryDeleteUntil(1, Deadline{}); err == nil {
		t.Fatalf("delete after server close succeeded")
	}
}

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

func TestTransportReconnectSemantics(t *testing.T) {
	// Data pushed before a client disconnect must be visible to a new
	// connection: the store outlives connections.
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	tr1, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	mustPush(t, tr1, 100, []byte{7, 7})
	tr1.Close()

	tr2, err := Dial(addr)
	if err != nil {
		t.Fatalf("re-Dial: %v", err)
	}
	defer tr2.Close()
	dst := make([]byte, 2)
	if !mustFetch(t, tr2, 100, dst) || dst[0] != 7 {
		t.Fatalf("data lost across reconnect")
	}
}
