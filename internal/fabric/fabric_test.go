package fabric

import (
	"bytes"
	"errors"
	"sync"
	"testing"

	"trackfm/internal/remote"
	"trackfm/internal/sim"
)

// mustPush, mustFetch and mustDelete run one undeadlined operation that
// the test expects to succeed; mustFetch reports whether the key was found.
func mustPush(t *testing.T, tr ErrorTransport, key uint64, src []byte) {
	t.Helper()
	if err := tr.TryPushUntil(key, src, Deadline{}); err != nil {
		t.Fatalf("push %d: %v", key, err)
	}
}

func mustFetch(t *testing.T, tr ErrorTransport, key uint64, dst []byte) bool {
	t.Helper()
	found, err := tr.TryFetchUntil(key, dst, Deadline{})
	if err != nil {
		t.Fatalf("fetch %d: %v", key, err)
	}
	return found
}

func mustDelete(t *testing.T, tr ErrorTransport, key uint64) {
	t.Helper()
	if err := tr.TryDeleteUntil(key, Deadline{}); err != nil {
		t.Fatalf("delete %d: %v", key, err)
	}
}

func TestSimLinkRoundTrip(t *testing.T) {
	env := sim.NewEnv()
	l := NewSimLink(env, BackendTCP)
	mustPush(t, l, 42, []byte{1, 2, 3, 4})
	dst := make([]byte, 4)
	if !mustFetch(t, l, 42, dst) {
		t.Fatalf("Fetch missed after Push")
	}
	if !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
		t.Fatalf("Fetch returned %v", dst)
	}
}

func TestSimLinkMissZeroFills(t *testing.T) {
	env := sim.NewEnv()
	l := NewSimLink(env, BackendTCP)
	dst := []byte{7, 7}
	if mustFetch(t, l, 1, dst) {
		t.Fatalf("Fetch on empty link reported found")
	}
	if dst[0] != 0 || dst[1] != 0 {
		t.Fatalf("miss did not zero-fill: %v", dst)
	}
}

func TestSimLinkChargesFetchCost(t *testing.T) {
	env := sim.NewEnv()
	l := NewSimLink(env, BackendTCP)
	before := env.Clock.Cycles()
	dst := make([]byte, 4096)
	mustFetch(t, l, 9, dst)
	charged := env.Clock.Cycles() - before
	want := env.Costs.RemoteObjectFetch(4096)
	if charged != want {
		t.Fatalf("TCP fetch charged %d cycles, want %d", charged, want)
	}
	if env.Counters.BytesFetched != 4096 {
		t.Fatalf("BytesFetched = %d", env.Counters.BytesFetched)
	}

	env2 := sim.NewEnv()
	r := NewSimLink(env2, BackendRDMA)
	mustFetch(t, r, 9, dst)
	if got, want := env2.Clock.Cycles(), env2.Costs.RemotePageFetch(4096); got != want {
		t.Fatalf("RDMA fetch charged %d cycles, want %d", got, want)
	}
}

func TestSimLinkPushAccounting(t *testing.T) {
	env := sim.NewEnv()
	l := NewSimLink(env, BackendTCP)
	mustPush(t, l, 1, make([]byte, 100))
	if env.Counters.BytesEvicted != 100 {
		t.Fatalf("BytesEvicted = %d", env.Counters.BytesEvicted)
	}
	if env.Clock.Cycles() != env.Costs.TransferCycles(100) {
		t.Fatalf("push charged %d cycles", env.Clock.Cycles())
	}
}

func TestSimLinkPushCopiesAndDelete(t *testing.T) {
	env := sim.NewEnv()
	l := NewSimLink(env, BackendTCP)
	src := []byte{1, 2}
	mustPush(t, l, 5, src)
	src[0] = 9
	dst := make([]byte, 2)
	mustFetch(t, l, 5, dst)
	if dst[0] != 1 {
		t.Fatalf("Push aliased caller buffer")
	}
	if l.RemoteKeys() != 1 || l.RemoteBytes() != 2 {
		t.Fatalf("remote inventory wrong: keys=%d bytes=%d", l.RemoteKeys(), l.RemoteBytes())
	}
	mustDelete(t, l, 5)
	if l.RemoteKeys() != 0 {
		t.Fatalf("Delete left key behind")
	}
}

func TestBackendString(t *testing.T) {
	if BackendTCP.String() != "tcp" || BackendRDMA.String() != "rdma" {
		t.Fatalf("Backend.String broken")
	}
	if Backend(99).String() != "unknown" {
		t.Fatalf("unknown backend string")
	}
}

func TestTCPTransportRoundTrip(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
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

	payload := []byte("far memory object payload")
	mustPush(t, tr, 1234, payload)
	dst := make([]byte, len(payload))
	if !mustFetch(t, tr, 1234, dst) {
		t.Fatalf("Fetch missed after Push")
	}
	if !bytes.Equal(dst, payload) {
		t.Fatalf("Fetch = %q", dst)
	}

	// Miss returns found=false and zeros.
	miss := make([]byte, 8)
	if mustFetch(t, tr, 999, miss) {
		t.Fatalf("Fetch of absent key reported found")
	}
	for _, b := range miss {
		if b != 0 {
			t.Fatalf("absent fetch not zero-filled: %v", miss)
		}
	}

	mustDelete(t, tr, 1234)
	if mustFetch(t, tr, 1234, dst) {
		t.Fatalf("Fetch after Delete reported found")
	}
}

func TestTCPTransportConcurrentClients(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tr, err := Dial(addr)
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			defer tr.Close()
			buf := make([]byte, 16)
			for i := 0; i < 100; i++ {
				key := uint64(g<<32 | i)
				payload := bytes.Repeat([]byte{byte(g + 1)}, 16)
				if err := tr.TryPushUntil(key, payload, Deadline{}); err != nil {
					t.Errorf("client %d: push %d: %v", g, key, err)
					return
				}
				if found, err := tr.TryFetchUntil(key, buf, Deadline{}); err != nil || !found {
					t.Errorf("client %d: fetch %d = %v, %v", g, key, found, err)
					return
				}
				if buf[0] != byte(g+1) {
					t.Errorf("client %d: cross-talk, got %d", g, buf[0])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if store.Len() != 400 {
		t.Fatalf("store has %d blobs, want 400", store.Len())
	}
}

func TestTCPTransportOversizedPayloadRejected(t *testing.T) {
	store := remote.NewStore()
	srv := NewServer(store)
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
	// An operation above the protocol limit must be refused client-side.
	big := make([]byte, MaxPayload+1)
	if err := tr.TryPushUntil(1, big, Deadline{}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized push = %v, want ErrPayloadTooLarge", err)
	}
	if _, err := tr.TryFetchUntil(1, big, Deadline{}); !errors.Is(err, ErrPayloadTooLarge) {
		t.Fatalf("oversized fetch = %v, want ErrPayloadTooLarge", err)
	}
	if store.Len() != 0 || srv.Stats().Frames() != 0 {
		t.Fatalf("oversized operation reached the server: %s", srv.Stats())
	}
}
