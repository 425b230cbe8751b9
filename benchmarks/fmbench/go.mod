module trackfm/benchmarks/fmbench

go 1.23

require trackfm v0.0.0

replace trackfm => ../..
