package fastswap

import (
	"strings"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/far"
	"trackfm/internal/mem/bufpool"
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

func faultySwap(t *testing.T, link *faultyLink, env *sim.Env, retries int, opts ...func(*Config)) *Swap {
	t.Helper()
	cfg := Config{
		Env:          env,
		HeapSize:     pageSize * 16,
		LocalBudget:  pageSize * 2,
		RemoteConfig: fabric.RemoteConfig{Transport: link, RemoteRetries: retries},
	}
	for _, o := range opts {
		o(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// TestFailedMajorFaultReturnsItsFrame: a major fault whose fetch is
// unrecoverable panics — the SIGBUS analogue, never a zero-filled page —
// and since interp.Run recovers such panics the swap must come out whole:
// the frame it claimed for the page goes back to the free list and, on a
// phantom swap, so does the scratch lease. After as many failed faults as
// there are frames, a healed link must serve faults again.
func TestFailedMajorFaultReturnsItsFrame(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	const frames = 2
	for _, backing := range []far.Backing{far.BackingReal, far.BackingPhantom} {
		leases := bufpool.Outstanding()
		env := sim.NewEnv()
		link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendRDMA)}
		s := faultySwap(t, link, env, 2, func(c *Config) { c.Backing = backing })
		for pg := uint64(0); pg < 2*frames; pg++ {
			s.StoreU64(pg*pageSize, pg+100)
		}
		s.EvacuateAll()

		link.failFetch = 1 << 30
		for pg := uint64(0); pg < frames; pg++ {
			func() {
				defer func() {
					if r, _ := recover().(string); !strings.Contains(r, "unrecoverable remote fault") {
						t.Fatalf("backing %d: major fault with dead fabric: panic = %q", backing, r)
					}
				}()
				s.LoadU64(pg * pageSize)
			}()
		}
		link.failFetch = 0
		for pg := uint64(0); pg < 2*frames; pg++ {
			want := pg + 100
			if backing == far.BackingPhantom {
				want = 0
			}
			if got := s.LoadU64(pg * pageSize); got != want {
				t.Fatalf("backing %d: page %d = %d after heal, want %d", backing, pg, got, want)
			}
		}
		if got := bufpool.Outstanding(); got != leases {
			t.Fatalf("backing %d: %d scratch leases never released", backing, got-leases)
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
