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
	failAsync int
	failPush  int
}

func (f *faultyLink) TryFetchUntil(key uint64, dst []byte, dl fabric.Deadline) (bool, error) {
	if f.failFetch > 0 {
		f.failFetch--
		return false, fabric.ErrRemoteUnavailable
	}
	return f.SimLink.TryFetchUntil(key, dst, dl)
}

func (f *faultyLink) TryFetchAsync(key uint64, dst []byte) (bool, error) {
	if f.failAsync > 0 {
		f.failAsync--
		return false, fabric.ErrRemoteUnavailable
	}
	return f.TryFetchUntil(key, dst, fabric.Deadline{})
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
		PageSize:     512,
		HeapSize:     512 * 16,
		LocalBudget:  512 * 2,
		RemoteConfig: fabric.RemoteConfig{Transport: link, RemoteRetries: retries},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

func TestMajorFaultRetriesTransientFetchFault(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendRDMA)}
	s := faultySwap(t, link, env, 4)
	s.StoreU64(0, 0xCAFE)
	s.EvacuateAll()

	link.failFetch = 2
	if got := s.LoadU64(0); got != 0xCAFE {
		t.Fatalf("LoadU64 after retried major fault = %#x, want 0xCAFE", got)
	}
	if env.Counters.RemoteFetchFaults != 2 {
		t.Fatalf("RemoteFetchFaults = %d, want 2", env.Counters.RemoteFetchFaults)
	}
}

func TestMajorFaultPanicsOnUnrecoverableFetch(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendRDMA)}
	s := faultySwap(t, link, env, 2)
	s.StoreU64(0, 77)
	s.EvacuateAll()

	link.failFetch = 1 << 30
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("major fault with dead fabric did not panic (zero-filled page handed out)")
		}
		if !strings.Contains(r.(string), "unrecoverable remote fault") {
			t.Fatalf("panic = %v", r)
		}
	}()
	s.LoadU64(0)
}

func TestReclaimStallsKeepDirtyPageMapped(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendRDMA)}
	s := faultySwap(t, link, env, 2)
	s.StoreU64(0, 11)
	s.StoreU64(512, 22)

	link.failPush = 1 << 30
	s.EvacuateAll()
	if env.Counters.EvictionStalls == 0 {
		t.Fatalf("no eviction stalls recorded under dead push path")
	}
	// The dirty pages must still be readable with their data intact.
	if got := s.LoadU64(0); got != 11 {
		t.Fatalf("page 0 = %d after stalled reclaim, want 11", got)
	}
	if got := s.LoadU64(512); got != 22 {
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

func TestReadaheadSkipsOnFetchFault(t *testing.T) {
	env := sim.NewEnv()
	link := &faultyLink{SimLink: fabric.NewSimLink(env, fabric.BackendRDMA)}
	s, err := New(Config{
		Env:            env,
		PageSize:       512,
		HeapSize:       512 * 16,
		LocalBudget:    512 * 8,
		RemoteConfig:   fabric.RemoteConfig{Transport: link, RemoteRetries: 2},
		ReadaheadPages: 4,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for pg := uint64(0); pg < 8; pg++ {
		s.StoreU64(pg*512, pg+100)
	}
	s.EvacuateAll()

	// Sequential major faults arm the readahead window (page 0 already
	// counts as sequential). The demand fetch stays healthy while the
	// asynchronous readahead fetches fail: the window must be skipped
	// (no zero-filled pages installed), not silently degraded.
	if got := s.LoadU64(0); got != 100 {
		t.Fatalf("page 0 = %d", got)
	}
	link.failAsync = 1 << 30
	if got := s.LoadU64(512); got != 101 {
		t.Fatalf("page 1 = %d", got)
	}
	if env.Counters.PrefetchIssued != 0 {
		t.Fatalf("failed readahead still counted as issued")
	}
	if env.Counters.RemoteFetchFaults == 0 {
		t.Fatalf("failed readahead not tallied as a fetch fault")
	}
	// Heal: every trailing page still reads its own data — nothing was
	// replaced with zeros by the failed speculation.
	link.failAsync = 0
	for pg := uint64(3); pg < 8; pg++ {
		if got := s.LoadU64(pg * 512); got != pg+100 {
			t.Fatalf("page %d corrupted by readahead: %d", pg, got)
		}
	}
	if env.Counters.PrefetchIssued == 0 {
		t.Fatalf("readahead never issued after heal")
	}
}
