package fabric

import (
	"testing"
	"time"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/remote"
)

// TestWireLeasesNetZero enforces the buffer-ownership contract end to end:
// with the bufpool leak detector armed, a real TCP server and client are
// driven through pushes, fetches (blocking and pipelined), a carried
// window, overwrites (same-size and resizing), a miss, and a delete, then
// torn down and the store cleared. Every pooled buffer issued for stored
// blobs must have been released — a nonzero delta means some path kept a
// lease past the callee-copies boundary — and once every blob is stored,
// serving the traffic takes no lease at all: the server serves payloads in
// its connection buffers.
func TestWireLeasesNetZero(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(bufpool.RaceEnabled)
	base := bufpool.Outstanding()

	store := remote.NewStore()
	srv := NewServer(store)
	addr, err := srv.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ListenAndServe: %v", err)
	}
	tc, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}

	// Varied sizes cover distinct pool classes, up to the largest frame.
	sizes := []int{64, 500, 4096, MaxPayload}
	for i, n := range sizes {
		key := uint64(i + 1)
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = byte(key + uint64(j))
		}
		if err := tc.TryPushUntil(key, payload, Deadline{}); err != nil {
			t.Fatalf("push key %d: %v", key, err)
		}
		dst := make([]byte, n)
		found, err := tc.TryFetchUntil(key, dst, Deadline{})
		if err != nil || !found {
			t.Fatalf("fetch key %d = %v, %v", key, found, err)
		}
		for j := range dst {
			if dst[j] != payload[j] {
				t.Fatalf("key %d byte %d = %#x, want %#x", key, j, dst[j], payload[j])
			}
		}
	}

	// The same fetches written ahead on the prefetch stream, and the same
	// pushes carried ahead of a fetch in one exchange: with every blob
	// stored at its width, none of it takes a lease.
	gets := bufpool.Wire.Stats().Gets
	var tickets []Ticket
	for i, n := range sizes {
		tk, err := tc.StartFetch(uint64(i+1), make([]byte, n))
		if err != nil {
			t.Fatalf("StartFetch key %d: %v", i+1, err)
		}
		tickets = append(tickets, tk)
	}
	for i, tk := range tickets {
		if found, err := tk.Wait(); err != nil || !found {
			t.Fatalf("pipelined fetch key %d = %v, %v", i+1, found, err)
		}
	}
	var window []Push
	for i, n := range sizes {
		window = append(window, Push{Key: uint64(i + 1), Src: make([]byte, n)})
	}
	if found, pushed, err := tc.TryFetchAfterPushes(window, 1, make([]byte, sizes[0]), Deadline{}); err != nil || pushed != nil || !found {
		t.Fatalf("carried window = %v, pushes %v, fetch %v", found, pushed, err)
	}
	if got := bufpool.Wire.Stats().Gets - gets; got != 0 {
		t.Errorf("serving stored blobs took %d bufpool.Wire gets, want 0", got)
	}

	// Same-size overwrite (in-place reuse on the node), a resizing
	// overwrite (old blob's buffer must return to the pool), a miss, and
	// a delete.
	if err := tc.TryPushUntil(1, make([]byte, 64), Deadline{}); err != nil {
		t.Fatalf("same-size overwrite: %v", err)
	}
	if err := tc.TryPushUntil(2, make([]byte, 128), Deadline{}); err != nil {
		t.Fatalf("resizing overwrite: %v", err)
	}
	if found, err := tc.TryFetchUntil(999, make([]byte, 64), Deadline{}); err != nil || found {
		t.Fatalf("miss = %v, %v", found, err)
	}
	if err := tc.TryDeleteUntil(3, Deadline{}); err != nil {
		t.Fatalf("delete: %v", err)
	}

	tc.Close()
	srv.Close()
	store.Clear()

	// A server handler's release can trail the client's receipt of the
	// response by a scheduler beat; settle briefly before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if got := bufpool.Outstanding(); got == base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("outstanding pool leases = %d, want %d — wire or store path leaked",
				bufpool.Outstanding(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
