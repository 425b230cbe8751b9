package fastswap

import (
	"strings"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/sim"
)

// faultyLink is an ErrorTransport whose fetches/pushes fail on command.
type faultyLink struct {
	*fabric.SimLink
	failFetch int
	failPush  int
}

func (f *faultyLink) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	if f.failFetch > 0 {
		f.failFetch--
		return false, fabric.ErrRemoteUnavailable
	}
	return f.SimLink.TryFetchUntil(key, dst, dl)
}

func (f *faultyLink) TryPushUntil(key uint64, src []byte, dl fabric.Deadline) error {
	if f.failPush > 0 {
		f.failPush--
		return fabric.ErrRemoteUnavailable
	}
	return f.SimLink.TryPushUntil(key, src, dl)
}

func faultySwap(t *testing.T, link *faultyLink, env *sim.Env, retries int) *Swap {
	t.Helper()
	s, err := New(Config{
		Env:          env,
		HeapSize:     pageSize * 16,
		LocalBudget:  pageSize * 2,
		RemoteConfig: fabric.RemoteConfig{Transport: link, RemoteRetries: retries},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestFailedMajorFaultReturnsItsFrame: a major fault whose fetch is
// unrecoverable panics — the SIGBUS analogue, never a zero-filled page —
// and since interp.Run recovers such panics the swap must come out whole:
// the frame it claimed for the page goes back to the free list. After as
// many failed faults as there are frames, a healed link must serve faults
// again.
func TestFailedMajorFaultReturnsItsFrame(t *testing.T) {
	const frames = 2
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendRDMA)}
	s := faultySwap(t, link, env, 2)
	for pg := uint64(0); pg < 2*frames; pg++ {
		s.StoreU64(pg*pageSize, pg+100)
	}
	s.EvacuateAll()

	link.failFetch = 1 << 30
	for pg := uint64(0); pg < frames; pg++ {
		func() {
			defer func() {
				if r, _ := recover().(string); !strings.Contains(r, "unrecoverable remote fault") {
					t.Fatalf("major fault with dead fabric: panic = %q", r)
				}
			}()
			s.LoadU64(pg * pageSize)
		}()
	}
	link.failFetch = 0
	for pg := uint64(0); pg < 2*frames; pg++ {
		if got, want := s.LoadU64(pg*pageSize), pg+100; got != want {
			t.Fatalf("page %d = %d after heal, want %d", pg, got, want)
		}
	}
}

func TestReclaimStallsKeepDirtyPageMapped(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendRDMA)}
	s := faultySwap(t, link, env, 2)
	s.StoreU64(0, 11)
	s.StoreU64(pageSize, 22)

	link.failPush = 1 << 30
	s.EvacuateAll()
	if env.Counters.EvictionStalls == 0 {
		t.Fatalf("no eviction stalls recorded under dead push path")
	}
	// The dirty pages must still be readable with their data intact.
	if got := s.LoadU64(0); got != 11 {
		t.Fatalf("page 0 = %d after stalled reclaim, want 11", got)
	}
	if got := s.LoadU64(pageSize); got != 22 {
		t.Fatalf("page 1 = %d after stalled reclaim, want 22", got)
	}
	// Heal and reclaim for real; the data round-trips through the
	// remote node.
	link.failPush = 0
	s.EvacuateAll()
	if got := s.LoadU64(0); got != 11 {
		t.Fatalf("page 0 = %d after heal, want 11", got)
	}
}
