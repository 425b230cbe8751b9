package bench

import (
	"strings"
	"testing"
)

func TestAblationShapes(t *testing.T) {
	tb := ablation(Scale{Factor: 0.5})
	full := cellF(t, row(t, tb, "full TrackFM (OST, chunk, prefetch d=8)")[1])
	noPf := cellF(t, row(t, tb, "no prefetch")[1])
	naive := cellF(t, row(t, tb, "no chunking (naive guards, OST)")[1])
	noOST := cellF(t, row(t, tb, "no chunking, no object state table")[1])

	if noPf <= full {
		t.Errorf("disabling prefetch did not cost anything: %v vs %v", noPf, full)
	}
	if naive <= full {
		t.Errorf("disabling chunking did not cost anything: %v vs %v", naive, full)
	}
	// §3.2: the OST removes one metadata reference per guard — dropping
	// it must slow guard-heavy runs.
	if noOST <= naive {
		t.Errorf("dropping the OST did not cost anything: %v vs %v", noOST, naive)
	}
}

func TestNASExtendedShapes(t *testing.T) {
	tb := nasExtended(Scale{Factor: 1})
	if len(tb.Rows) != 8 { // 7 kernels + geomean
		t.Fatalf("nasx rows = %d", len(tb.Rows))
	}
	// EP is compute-bound streaming: TrackFM must win it.
	ep := row(t, tb, "EP")
	if cellF(t, ep[2]) >= cellF(t, ep[1]) {
		t.Errorf("EP: TrackFM %s not better than Fastswap %s", ep[2], ep[1])
	}
	// LU's wavefront dependencies limit chunk/prefetch benefit; both
	// systems must at least stay within 2x of each other.
	lu := row(t, tb, "LU")
	if cellF(t, lu[2]) > 2*cellF(t, lu[1]) {
		t.Errorf("LU: TrackFM %s implausibly far behind Fastswap %s", lu[2], lu[1])
	}
}

func TestAutotuneExperiment(t *testing.T) {
	tb := autotuneTable(Scale{Factor: 0.5})
	if len(tb.Rows) != 2 {
		t.Fatalf("autotune rows = %d", len(tb.Rows))
	}
	streamRow := row(t, tb, "stream-sum")
	chosen := streamRow[len(streamRow)-1]
	if chosen != "4096B" && chosen != "2048B" {
		t.Errorf("streaming tuner chose %s, want a large object size", chosen)
	}
	gatherRow := row(t, tb, "random-gather")
	chosen = gatherRow[len(gatherRow)-1]
	if !strings.HasSuffix(chosen, "B") || (chosen != "64B" && chosen != "128B" && chosen != "256B" && chosen != "512B") {
		t.Errorf("gather tuner chose %s, want a small object size", chosen)
	}
}
