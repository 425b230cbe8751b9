// Package trackfm is a production-quality Go reproduction of "TrackFM:
// Far-out Compiler Support for a Far Memory World" (Tauro, Suchy,
// Campanoni, Dinda, Hale — ASPLOS 2024).
//
// TrackFM is a compiler-based approach to software far memory: a compiler
// pipeline transforms unmodified programs so that every heap access is
// guarded, guards localize remote objects through an AIFM-style object
// runtime, and loop chunking plus compiler-directed prefetching eliminate
// most guard overheads. This module rebuilds the whole system in Go — the
// compiler passes over a mini-IR, the TrackFM runtime (non-canonical
// pointers, object state table, guards, chunk cursors, cost model), the
// AIFM object pool substrate, the Fastswap kernel-paging baseline, the
// interconnect and remote-node substrates, the paper's workloads, and a
// benchmark harness that regenerates every table and figure of the
// evaluation.
//
// Layout:
//
//	internal/sim       cycle clock, counters, calibrated cost model
//	internal/fabric    interconnect: simulated link + real TCP transport
//	internal/remote    remote memory node (blob store, TCP server)
//	internal/mem       buffer pool and compressed middle tier
//	internal/far       the far engine under both runtimes (tier, deadlines, retries)
//	internal/aifm      AIFM object runtime (pool, pins, evacuator, prefetch)
//	internal/core      the TrackFM runtime (the paper's contribution)
//	internal/fastswap  kernel-based swap baseline
//	internal/ir        mini-IR standing in for LLVM bitcode
//	internal/compiler  the five-pass pipeline of the paper's Figure 2
//	internal/interp    the backends every workload runs on; IR execution
//	internal/workloads STREAM, k-means, hashmap, analytics, memcached, NAS
//	internal/bench     one experiment per paper table/figure
//	cmd/trackfm-bench  regenerate experiments from the command line
//	cmd/trackfm-compile  run the compiler pipeline, print pass decisions
//	cmd/fmserver       TCP remote-memory server
//	examples/          runnable programs against the public pieces
//
// See DESIGN.md for the system inventory and substitution rationale, and
// EXPERIMENTS.md for paper-versus-measured results.
package trackfm
