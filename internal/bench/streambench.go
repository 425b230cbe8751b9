package bench

import (
	"trackfm/internal/compiler"
	"trackfm/internal/interp"
	"trackfm/internal/workloads/stream"
)

// streamN sizes the STREAM arrays; the paper's 12 GB working set scales
// to a few MB with identical local-memory ratios.
func streamN(s Scale) int64 { return s.n(1 << 16) }

// fig7 regenerates Figure 7: speedup of the loop-chunking transformation
// over the naive transformation on STREAM Sum and Copy, sweeping local
// memory (prefetching disabled in both, isolating guard elimination).
func fig7(s Scale) *Table {
	t := &Table{
		ID:      "fig7",
		Title:   "Loop-chunking speedup on STREAM vs local memory %",
		Columns: []string{"local mem %", "Sum speedup", "Copy speedup"},
		Notes:   "paper: 1.5-2.0x, rising toward full-local (guard-bound) regime",
	}
	n := streamN(s)
	for _, f := range localFractions {
		row := []string{f2(f)}
		for _, k := range []stream.Kernel{stream.Sum, stream.Copy} {
			ws := stream.WorkingSetBytes(k, n)
			heap := ws * 2
			b := budget(ws, f)
			naive := run(interp.TrackFM, stream.Program(k, n),
				compiler.Options{Chunking: compiler.ChunkNone, ObjectSize: 4096}, heap, b)
			chunked := run(interp.TrackFM, stream.Program(k, n),
				compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096}, heap, b)
			row = append(row, f2(float64(naive.Clock.Cycles())/float64(chunked.Clock.Cycles())))
		}
		t.AddRow(row...)
	}
	return t
}

// fig10 regenerates Figure 10: far-memory bandwidth of STREAM Copy as a
// function of object size and local memory. High spatial locality rewards
// large objects.
var objectSizes = []int{4096, 2048, 1024, 512, 256}

func fig10(s Scale) *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "STREAM Copy bandwidth (MB/s) by object size and local memory %",
		Columns: []string{"local mem %", "4KB", "2KB", "1KB", "512B", "256B"},
		Notes:   "paper: larger objects win under high spatial locality; 4KB best",
	}
	n := streamN(s)
	ws := stream.WorkingSetBytes(stream.Copy, n)
	bytesMoved := float64(n) * float64(stream.Copy.BytesPerIteration())
	for _, f := range localFractions {
		row := []string{f2(f)}
		for _, obj := range objectSizes {
			env := run(interp.TrackFM, stream.Program(stream.Copy, n),
				compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: obj, Prefetch: true},
				ws*2, budget(ws, f))
			mbps := bytesMoved / (1 << 20) / env.Clock.Seconds()
			row = append(row, f1(mbps))
		}
		t.AddRow(row...)
	}
	return t
}

// fig11 regenerates Figure 11: speedup of prefetching coupled with loop
// chunking over loop chunking alone, on STREAM Sum and Copy.
func fig11(s Scale) *Table {
	t := &Table{
		ID:      "fig11",
		Title:   "Prefetch+chunking speedup over chunking alone on STREAM",
		Columns: []string{"local mem %", "Sum speedup", "Copy speedup"},
		Notes:   "paper: up to ~5x when remote costs dominate (left side)",
	}
	n := streamN(s)
	for _, f := range localFractions {
		row := []string{f2(f)}
		for _, k := range []stream.Kernel{stream.Sum, stream.Copy} {
			ws := stream.WorkingSetBytes(k, n)
			heap := ws * 2
			b := budget(ws, f)
			noPf := run(interp.TrackFM, stream.Program(k, n),
				compiler.Options{Chunking: compiler.ChunkCostModel, ObjectSize: 4096}, heap, b)
			withPf := run(interp.TrackFM, stream.Program(k, n), fullTrackFM, heap, b)
			row = append(row, f2(float64(noPf.Clock.Cycles())/float64(withPf.Clock.Cycles())))
		}
		t.AddRow(row...)
	}
	return t
}

// fig12 regenerates Figure 12: TrackFM (chunking + prefetching) speedup
// over Fastswap on STREAM.
func fig12(s Scale) *Table {
	t := &Table{
		ID:      "fig12",
		Title:   "TrackFM speedup over Fastswap on STREAM",
		Columns: []string{"local mem %", "Sum speedup", "Copy speedup"},
		Notes:   "paper: ~2.7x (Sum) and ~2.9x (Copy) average",
	}
	n := streamN(s)
	for _, f := range localFractions {
		row := []string{f2(f)}
		for _, k := range []stream.Kernel{stream.Sum, stream.Copy} {
			ws := stream.WorkingSetBytes(k, n)
			heap := ws * 2
			b := budget(ws, f)
			tfm := run(interp.TrackFM, stream.Program(k, n), fullTrackFM, heap, b)
			fs := run(interp.Fastswap, stream.Program(k, n), compiler.Options{}, heap, b)
			row = append(row, f2(float64(fs.Clock.Cycles())/float64(tfm.Clock.Cycles())))
		}
		t.AddRow(row...)
	}
	return t
}
