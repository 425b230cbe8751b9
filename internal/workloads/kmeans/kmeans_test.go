package kmeans

import (
	"testing"

	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/ir"
	"trackfm/internal/sim"
)

var small = Config{Points: 400, Dims: 4, K: 5, Iterations: 3}

func compileAndRunTFM(t *testing.T, cfg Config, opts compiler.Options, budget uint64) (int64, *sim.Env, *compiler.Stats) {
	t.Helper()
	res, env, stats, err := interp.RunOn(interp.TrackFM, Program(cfg), opts, 1<<24, budget)
	if err != nil {
		t.Fatalf("RunOn: %v", err)
	}
	return res.Return, env, stats
}

// profileOf returns the profile a profile-guided run of cfg collected.
func profileOf(t *testing.T, cfg Config) *compiler.Profile {
	t.Helper()
	prof := compiler.NewProfile()
	compileAndRunTFM(t, cfg, compiler.Options{ObjectSize: 4096, Profile: prof}, 1<<22)
	return prof
}

func TestResultStableAcrossChunkModes(t *testing.T) {
	want, _, _ := compileAndRunTFM(t, small, compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096}, 1<<22)
	gotAll, _, _ := compileAndRunTFM(t, small, compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 4096}, 1<<22)
	if gotAll != want {
		t.Fatalf("ChunkAll checksum %d != naive %d", gotAll, want)
	}
	gotCM, _, _ := compileAndRunTFM(t, small, compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096}, 1<<22)
	if gotCM != want {
		t.Fatalf("ChunkCostModel checksum %d != naive %d", gotCM, want)
	}
}

func TestResultMatchesLocalReference(t *testing.T) {
	res, _, _, err := interp.RunOn(interp.Local, Program(small), compiler.Options{}, 0, 0)
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	want, _, _ := compileAndRunTFM(t, small, compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096}, 1<<16)
	if res.Return != want {
		t.Fatalf("far-memory result %d != local reference %d", want, res.Return)
	}
}

func TestClustersAreNonTrivial(t *testing.T) {
	// The checksum must not be zero (all points in cluster 0 would make
	// the benchmark vacuous).
	got, _, _ := compileAndRunTFM(t, small, compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096}, 1<<22)
	if got == 0 {
		t.Fatalf("degenerate clustering: checksum 0")
	}
}

func TestIndiscriminateChunkingHurts(t *testing.T) {
	// Fig. 8: applying loop chunking to every loop slows k-means down;
	// the cost-model filter must beat it.
	cfg := Config{Points: 600, Dims: 4, K: 6, Iterations: 2}
	_, envNone, _ := compileAndRunTFM(t, cfg, compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096}, 1<<20)
	_, envAll, sAll := compileAndRunTFM(t, cfg, compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 4096}, 1<<20)

	if sAll.StreamsChunked == 0 {
		t.Fatalf("ChunkAll chunked nothing; test is vacuous")
	}
	slowdown := float64(envAll.Clock.Cycles()) / float64(envNone.Clock.Cycles())
	if slowdown < 1.5 {
		t.Fatalf("indiscriminate chunking slowdown %.2fx, want >= 1.5x (paper: ~4x)", slowdown)
	}
}

func TestCostModelFiltersLowDensityLoops(t *testing.T) {
	cfg := Config{Points: 600, Dims: 4, K: 6, Iterations: 2}

	// Profile-guided: the profile is of the instance then compiled.
	_, env, stats := compileAndRunTFM(t, cfg, compiler.Options{
		Chunking: compiler.ChunkCostModel, ObjectSize: 4096, Profile: compiler.NewProfile(),
	}, 1<<20)
	// The Dims=4 inner loops must be rejected; k-means has no stream
	// that survives the model at this shape except possibly the long
	// point-major generation scans.
	if stats.StreamsRejected == 0 {
		t.Fatalf("cost model rejected nothing: %+v", stats)
	}
	selective := env.Clock.Cycles()

	_, envAll, _ := compileAndRunTFM(t, cfg, compiler.Options{Chunking: compiler.ChunkAll, ObjectSize: 4096}, 1<<20)
	if selective >= envAll.Clock.Cycles() {
		t.Fatalf("cost-model chunking (%d cycles) not faster than all-loops (%d)", selective, envAll.Clock.Cycles())
	}
}

func TestWorkingSetBytes(t *testing.T) {
	ws := small.WorkingSetBytes()
	if ws == 0 || ws < uint64(small.Points*small.Dims*8) {
		t.Fatalf("WorkingSetBytes = %d", ws)
	}
}

func TestProfileHelper(t *testing.T) {
	prof := profileOf(t, small)
	if len(prof.Entries) == 0 {
		t.Fatalf("profile recorded no loops")
	}
	var anyShort bool
	for l := range prof.Entries {
		if tr, ok := prof.AvgTrips(l); ok && tr <= uint64(small.Dims) {
			anyShort = true
		}
	}
	if !anyShort {
		t.Fatalf("no short inner loops observed in profile")
	}
	_ = ir.CountNodes(Program(small).Funcs["main"].Body) // program builds deterministically
}
