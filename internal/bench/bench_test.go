package bench

import (
	"strconv"
	"strings"
	"testing"
)

// cellF parses a numeric cell ("x2.40" and "0.25 (9b)" forms included).
func cellF(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimPrefix(s, "x")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", s, err)
	}
	return v
}

// row finds the first row whose first cell equals key.
func row(t *testing.T, tb *Table, key string) []string {
	t.Helper()
	for _, r := range tb.Rows {
		if r[0] == key {
			return r
		}
	}
	t.Fatalf("%s: no row %q", tb.ID, key)
	return nil
}

func TestTable1MatchesPaper(t *testing.T) {
	tb := table1(Scale{})
	want := [][2]float64{{21, 297}, {21, 309}, {144, 453}, {159, 432}}
	if len(tb.Rows) != 4 {
		t.Fatalf("Table1 has %d rows", len(tb.Rows))
	}
	for i, r := range tb.Rows {
		if cellF(t, r[1]) != want[i][0] || cellF(t, r[2]) != want[i][1] {
			t.Errorf("row %q = %s/%s, want %v/%v", r[0], r[1], r[2], want[i][0], want[i][1])
		}
	}
}

func TestTable2MatchesPaperBands(t *testing.T) {
	tb := table2(Scale{})
	fr := row(t, tb, "Fastswap read fault")
	if cellF(t, fr[1]) != 1300 {
		t.Errorf("Fastswap local fault = %s, want 1300", fr[1])
	}
	if rem := cellF(t, fr[2]); rem < 33_000 || rem > 36_000 {
		t.Errorf("Fastswap remote fault = %s, want ~34K", fr[2])
	}
	tr := row(t, tb, "TrackFM slow-path read guard")
	if cellF(t, tr[1]) != 453 {
		t.Errorf("TrackFM local slow guard = %s, want 453", tr[1])
	}
	if rem := cellF(t, tr[2]); rem < 34_000 || rem > 37_000 {
		t.Errorf("TrackFM remote slow guard = %s, want ~35K", tr[2])
	}
}

func TestFig6CrossoverNear730(t *testing.T) {
	tb := fig6(Scale{})
	// Below the predicted crossover chunking must lose; above, win.
	if cellF(t, row(t, tb, "650")[1]) >= 1.0 {
		t.Errorf("chunking won below the crossover")
	}
	if cellF(t, row(t, tb, "800")[1]) <= 1.0 {
		t.Errorf("chunking lost above the crossover")
	}
}

func TestFig7ChunkingAlwaysWinsOnStream(t *testing.T) {
	tb := fig7(Scale{Factor: 0.5})
	for _, r := range tb.Rows {
		for c := 1; c <= 2; c++ {
			if v := cellF(t, r[c]); v < 1.05 {
				t.Errorf("local=%s col=%d speedup %v < 1.05", r[0], c, v)
			}
		}
	}
	// Guard-bound regime (right side) benefits at least as much as the
	// network-bound regime (left side).
	first := cellF(t, tb.Rows[0][1])
	last := cellF(t, tb.Rows[len(tb.Rows)-1][1])
	if last < first {
		t.Errorf("speedup should rise toward full-local: %v -> %v", first, last)
	}
}

func TestFig8SelectiveBeatsIndiscriminate(t *testing.T) {
	tb := fig8(Scale{Factor: 0.5})
	for _, r := range tb.Rows {
		all := cellF(t, r[1])
		sel := cellF(t, r[2])
		if all >= 0.5 {
			t.Errorf("local=%s: all-loops speedup %v, want < 0.5 (paper ~0.25)", r[0], all)
		}
		if sel <= 1.0 {
			t.Errorf("local=%s: selective speedup %v, want > 1.0", r[0], sel)
		}
	}
}

func TestFig9SmallObjectsWinUnderPressure(t *testing.T) {
	tb := fig9(Scale{Factor: 0.5})
	r := tb.Rows[0] // 20% local
	if cellF(t, r[5]) <= cellF(t, r[1]) {
		t.Errorf("at 20%% local, 256B (%s MOps) should beat 4KB (%s MOps)", r[5], r[1])
	}
	// The paper's 9b bar chart at 25% local shows the same ordering.
	b := row(t, tb, "0.25 (9b)")
	if cellF(t, b[5]) <= cellF(t, b[1]) {
		t.Errorf("fig9b: 256B should beat 4KB at 25%% local")
	}
}

func TestFig10LargeObjectsWinForStream(t *testing.T) {
	tb := fig10(Scale{Factor: 0.5})
	r := tb.Rows[0] // 20% local
	if cellF(t, r[1]) <= cellF(t, r[5]) {
		t.Errorf("at 20%% local, 4KB (%s MB/s) should beat 256B (%s MB/s)", r[1], r[5])
	}
}

func TestFig11PrefetchHelpsWhenRemoteBound(t *testing.T) {
	tb := fig11(Scale{Factor: 0.5})
	left := cellF(t, tb.Rows[0][1])
	if left < 1.5 {
		t.Errorf("prefetch speedup at 20%% local = %v, want >= 1.5", left)
	}
	right := cellF(t, tb.Rows[len(tb.Rows)-1][1])
	if right > 1.1 {
		t.Errorf("prefetch speedup at 100%% local = %v, want ~1.0", right)
	}
	if right >= left {
		t.Errorf("prefetch impact should shrink as memory grows: %v -> %v", left, right)
	}
}

func TestFig12TrackFMBeatsFastswapUnderPressure(t *testing.T) {
	tb := fig12(Scale{Factor: 0.5})
	for _, r := range tb.Rows[:3] { // 20-60% local
		for c := 1; c <= 2; c++ {
			if v := cellF(t, r[c]); v < 1.2 {
				t.Errorf("local=%s col=%d TrackFM/Fastswap speedup %v < 1.2", r[0], c, v)
			}
		}
	}
}

func TestFig13IOAmplification(t *testing.T) {
	tb := fig13(Scale{Factor: 0.5})
	r := tb.Rows[1] // 25% local
	tfmTime, fsTime := cellF(t, r[1]), cellF(t, r[2])
	tfmAmp, fsAmp := cellF(t, r[5]), cellF(t, r[6])
	if fsAmp < 3*tfmAmp {
		t.Errorf("Fastswap amplification %v not >> TrackFM %v", fsAmp, tfmAmp)
	}
	if tfmTime >= fsTime {
		t.Errorf("TrackFM (%vs) not faster than Fastswap (%vs) under pressure", tfmTime, fsTime)
	}
}

func TestFig14TrackFMNearAIFM(t *testing.T) {
	tb := fig14(Scale{Factor: 0.5})
	for _, r := range tb.Rows[:2] { // memory-constrained points
		tfm, fs, aifm := cellF(t, r[1]), cellF(t, r[2]), cellF(t, r[3])
		if diff := (tfm - aifm) / aifm; diff > 0.15 || diff < -0.15 {
			t.Errorf("local=%s: TrackFM %v vs AIFM %v beyond 15%%", r[0], tfm, aifm)
		}
		if fs <= tfm {
			t.Errorf("local=%s: Fastswap %v should trail TrackFM %v when constrained", r[0], fs, tfm)
		}
	}
	// Fastswap converges as memory grows (paper: ~75%).
	last := tb.Rows[len(tb.Rows)-1]
	if fs := cellF(t, last[2]); fs > 1.3 {
		t.Errorf("Fastswap at 100%% local = %v, should approach 1.0", fs)
	}
}

func TestFig15CostModelBeatsAllLoops(t *testing.T) {
	tb := fig15(Scale{Factor: 0.5})
	// At moderate pressure the cost model must beat indiscriminate
	// chunking; at ample memory it must also beat the baseline.
	mid := tb.Rows[2] // 50% local
	if cellF(t, mid[3]) >= cellF(t, mid[2]) {
		t.Errorf("at 50%%: cost-model %s not better than all-loops %s", mid[3], mid[2])
	}
	last := tb.Rows[len(tb.Rows)-1]
	if cellF(t, last[3]) >= cellF(t, last[1]) {
		t.Errorf("at 100%%: cost-model %s not better than baseline %s", last[3], last[1])
	}
}

func TestFig16TrackFMBeatsFastswapOnKV(t *testing.T) {
	tb := fig16(Scale{Factor: 0.5})
	var prevFaults float64 = -1
	for i, r := range tb.Rows {
		tfm, fs := cellF(t, r[1]), cellF(t, r[2])
		if tfm <= fs {
			t.Errorf("skew=%s: TrackFM %v KOps <= Fastswap %v", r[0], tfm, fs)
		}
		tfmMB, fsMB := cellF(t, r[6]), cellF(t, r[7])
		if fsMB < 10*tfmMB {
			t.Errorf("skew=%s: Fastswap moved %vMB, TrackFM %vMB — amplification gap too small", r[0], fsMB, tfmMB)
		}
		// Higher skew -> more temporal locality -> fewer Fastswap faults.
		faults := cellF(t, r[5])
		if i > 0 && faults >= prevFaults {
			t.Errorf("skew=%s: faults did not decrease (%v -> %v)", r[0], prevFaults, faults)
		}
		prevFaults = faults
	}
}

func TestFig17NASShapes(t *testing.T) {
	tb := fig17(Scale{Factor: 0.5})
	cg := row(t, tb, "CG")
	if cellF(t, cg[2]) >= cellF(t, cg[1]) {
		t.Errorf("CG: TrackFM %s not better than Fastswap %s", cg[2], cg[1])
	}
	ft := row(t, tb, "FT")
	if cellF(t, ft[2]) <= cellF(t, ft[1]) {
		t.Errorf("FT should be the outlier where Fastswap wins: TFM %s vs FS %s", ft[2], ft[1])
	}
	if cellF(t, ft[3]) >= cellF(t, ft[2]) {
		t.Errorf("FT: O1 did not improve TrackFM (%s -> %s)", ft[2], ft[3])
	}
	sp := row(t, tb, "SP")
	if cellF(t, sp[3]) >= cellF(t, sp[2]) {
		t.Errorf("SP: O1 did not improve TrackFM (%s -> %s)", sp[2], sp[3])
	}
	gm := row(t, tb, "GeoM.")
	if cellF(t, gm[3]) >= cellF(t, gm[1]) {
		t.Errorf("geomean: TrackFM/O1 %s should beat Fastswap %s", gm[3], gm[1])
	}
}

func TestTable3Inventory(t *testing.T) {
	tb := table3(Scale{})
	if len(tb.Rows) != 5 {
		t.Fatalf("Table3 has %d rows", len(tb.Rows))
	}
	if !strings.HasPrefix(tb.Rows[0][0], "CG") {
		t.Errorf("first row %q", tb.Rows[0][0])
	}
}

func TestTable4Comparison(t *testing.T) {
	tb := table4(Scale{})
	last := tb.Rows[len(tb.Rows)-1]
	if !strings.HasPrefix(last[0], "TrackFM") {
		t.Fatalf("last row %q", last[0])
	}
	for _, cell := range last[1:] {
		if cell != "yes" {
			t.Errorf("TrackFM should answer yes in every column, got %q", cell)
		}
	}
}

func TestCompileCostsBands(t *testing.T) {
	tb := compileCosts(Scale{Factor: 1})
	if len(tb.Rows) < 8 {
		t.Fatalf("CompileCosts covers %d workloads", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		f := cellF(t, r[3])
		if f < 1.2 || f > 4.0 {
			t.Errorf("%s: code-size factor %v outside [1.2, 4.0] (paper avg 2.4)", r[0], f)
		}
	}
}

func TestLookupAndExperiments(t *testing.T) {
	if _, err := Lookup("fig7"); err != nil {
		t.Fatalf("Lookup(fig7): %v", err)
	}
	if _, err := Lookup("nope"); err == nil {
		t.Fatalf("Lookup of unknown id succeeded")
	}
	seen := map[string]bool{}
	for _, e := range Experiments() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %q incomplete", e.ID)
		}
	}
	for _, id := range []string{"table1", "table2", "fig6", "fig12", "fig14", "fig17", "compile"} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{ID: "x", Title: "t", Columns: []string{"a", "bb"}, Notes: "n"}
	tb.AddRow("1", "2")
	s := tb.String()
	for _, want := range []string{"x: t", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("Table.String missing %q:\n%s", want, s)
		}
	}
}
