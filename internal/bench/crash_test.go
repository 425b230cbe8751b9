package bench

import (
	"strconv"
	"testing"
)

// The acceptance gates for the crash-consistency soak, at the same scale as
// the checked-in BENCH_crash.json: at least 100 seeded crash points, zero
// acked-write loss, zero byte mismatches, and mid-record crashes (torn
// tails) actually exercised.
func TestCrashSoakAcceptance(t *testing.T) {
	tbl := crash(Scale{})
	totalRow := tbl.Rows[len(tbl.Rows)-1]
	if totalRow[0] != "total" {
		t.Fatalf("last row is %q, want the total row", totalRow[0])
	}
	col := func(row []string, name string) uint64 {
		t.Helper()
		for i, c := range tbl.Columns {
			if c == name {
				v, err := strconv.ParseUint(row[i], 10, 64)
				if err != nil {
					t.Fatalf("column %q = %q: %v", name, row[i], err)
				}
				return v
			}
		}
		t.Fatalf("no column %q in %v", name, tbl.Columns)
		return 0
	}

	if got := col(totalRow, "crashes"); got < 100 {
		t.Fatalf("only %d crash points, want >= 100", got)
	}
	if got := col(totalRow, "lost"); got != 0 {
		t.Fatalf("%d acked writes lost across recoveries, want 0", got)
	}
	if got := col(totalRow, "mismatched"); got != 0 {
		t.Fatalf("%d acked writes recovered with wrong bytes, want 0", got)
	}
	if got := col(totalRow, "torn tails"); got == 0 {
		t.Fatalf("no crash landed mid-record: the soak never exercised torn-tail recovery")
	}
	if got := col(totalRow, "acked ops"); got == 0 {
		t.Fatalf("no acknowledged ops at all: crash points fire before any work")
	}
	// Every seed must contribute crashes and replay work.
	for _, row := range tbl.Rows[:len(tbl.Rows)-1] {
		if got := col(row, "crashes"); got == 0 {
			t.Fatalf("seed %s ran no crashes", row[0])
		}
		if got := col(row, "replayed recs"); got == 0 {
			t.Fatalf("seed %s replayed no WAL records", row[0])
		}
	}
}

// The table is a pure function of its seeds: two runs must serialize to
// identical JSON (this is what makes BENCH_crash.json reviewable in git).
func TestCrashSoakDeterministic(t *testing.T) {
	a := crash(Scale{}).JSON()
	b := crash(Scale{}).JSON()
	if a != b {
		t.Fatalf("two runs produced different JSON:\n%s\n---\n%s", a, b)
	}
}
