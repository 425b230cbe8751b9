//go:build race

package core

import (
	"bytes"
	"os"
	"os/exec"
	"sync"
	"testing"
)

// TestRaceDetectorSeesGuardedLoads: a guarded LoadU64 loop against a
// Cursor.StoreU64 loop on the same word is a race in the program, and a
// -race build must say so. The pair runs in a child process — the detector
// fails whatever test it fires in — and the child's output must carry the
// detector's report. The pool's lock-free resident read would hide it — its
// copy is invisible to the detector — so a -race build does not take it;
// with it taken, the child reports nothing.
func TestRaceDetectorSeesGuardedLoads(t *testing.T) {
	if os.Getenv("TRACKFM_RACE_CHILD") == "1" {
		raceGuardedLoadAgainstCursorStore(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestRaceDetectorSeesGuardedLoads$", "-test.count=1")
	cmd.Env = append(os.Environ(), "TRACKFM_RACE_CHILD=1")
	out, _ := cmd.CombinedOutput()
	if !bytes.Contains(out, []byte("DATA RACE")) {
		t.Fatalf("the detector did not report a guarded load racing a cursor store; child output:\n%s", out)
	}
}

func raceGuardedLoadAgainstCursorStore(t *testing.T) {
	const rounds = 100_000
	rt := newTestRuntime(t, 4096, 1<<16, 1<<16)
	p := rt.MustMalloc(8)
	// Both sides warm first: the cursor holds its chunk and the object is
	// hot, so from here on every load is a resident read — the one path
	// whose copy could be hidden from the detector.
	c := rt.NewCursor(p, 8, false)
	c.StoreU64(0, 0)
	rt.LoadU64(p)
	var start, wg sync.WaitGroup
	start.Add(1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer c.Close()
		start.Wait()
		for i := uint64(0); i < rounds; i++ {
			c.StoreU64(0, i)
		}
	}()
	go func() {
		defer wg.Done()
		start.Wait()
		for i := 0; i < rounds; i++ {
			rt.LoadU64(p)
		}
	}()
	start.Done()
	wg.Wait()
}
