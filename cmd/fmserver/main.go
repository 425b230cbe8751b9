// Command fmserver runs a TrackFM remote-memory node: a TCP server that
// stores evacuated far-memory objects for clients using the
// fabric.TCPTransport. It is the real-network counterpart of the
// simulated link the calibrated benchmarks use; examples/kvstore can run
// against it.
//
// Clients survive an fmserver crash as long as a replacement comes back on
// the same address: the TCPTransport re-dials on the next attempt (an
// operation that finds its idle socket closed by the restart is resent
// once on a fresh one), the client's far engine re-issues what failed
// under its retry budget, and the store contents can be considered the
// node's "memory" (a restarted
// process with a fresh store serves fetches as not-found, which clients
// observe as typed errors or misses — never as corrupted data: every blob
// carries a CRC32-C recorded at push, verified on every fetch, and every
// payload frame on the wire carries a CRC trailer).
//
//	fmserver -addr 127.0.0.1:7070
//
// # Durability
//
// With -data-dir set the node keeps its store across restarts: every
// acknowledged push/delete is appended to a CRC32-C-framed write-ahead log
// before the ack, compacting snapshots bound replay work, and on startup
// the node recovers the latest valid snapshot plus the WAL (truncating a
// torn or corrupt tail). A recovered node advertises a fresh restart
// generation with the durable bit set in its hello reply, so a client
// (TCPTransport.PeerIdentity) can tell a node that came back with its data
// from one that came back empty:
//
//	fmserver -addr 127.0.0.1:7070 -data-dir /var/lib/fm0 -fsync always
//
// -fsync selects the WAL durability policy: "always" fsyncs every append
// (zero acked-write loss on power failure), "interval" fsyncs every 32
// appends (bounded loss window, much cheaper), "never" leaves flushing to
// the OS. A compacting snapshot is taken once the WAL outgrows the larger
// of -snapshot-every (the floor) and the store's live raw bytes, so a
// snapshot never writes more payload than the log it replaces. On
// SIGINT/SIGTERM the node drains gracefully:
// stops accepting, lets in-flight requests finish (bounded by -drain),
// writes a final snapshot, and exits 0.
//
// # Compressed-at-rest storage
//
// With -compress the node keeps every blob LZ-compressed in memory
// (remote.NewCompressedStore), trading server CPU on each push/fetch for an
// effective memory multiplier reported as the
// trackfm_store_compression_ratio gauge. The wire contract is unchanged
// — clients see raw bytes and the same CRC32-C identity — so the flag
// composes with -data-dir: the WAL and the snapshot record raw payloads
// whatever the memory holds, so a data directory written under one setting
// of -compress recovers under the other:
//
//	fmserver -addr 127.0.0.1:7070 -compress -data-dir /var/lib/fm0
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"trackfm/internal/fabric"
	"trackfm/internal/mem/bufpool"
	"trackfm/internal/obs"
	"trackfm/internal/remote"
)

// tag prefixes every line the node prints.
const tag = "fmserver"

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	stats := flag.Duration("stats", 10*time.Second, "stats reporting interval (0 disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus metrics over HTTP at this address under /metrics (empty disables)")
	maxQueue := flag.Int("max-queue", 256, "admission control: max requests in flight before shedding (0 disables admission control)")
	codelTarget := flag.Duration("codel-target", 5*time.Millisecond, "admission control: queue-delay target; sustained delay above it sheds")
	codelInterval := flag.Duration("codel-interval", 100*time.Millisecond, "admission control: how long delay must stay above target before shedding")
	compress := flag.Bool("compress", false, "hold blobs compressed at rest in memory (LZ codec)")
	dataDir := flag.String("data-dir", "", "directory for the write-ahead log and snapshots (empty = in-memory only, state lost on exit)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always | interval (every 32 appends) | never")
	snapshotEvery := flag.Int64("snapshot-every", 4<<20, "floor of the WAL bytes that trigger a compacting snapshot; the trigger is the larger of this and the store's live bytes (<0 disables)")
	drain := flag.Duration("drain", 5*time.Second, "graceful-shutdown grace: how long in-flight requests get to finish on SIGINT/SIGTERM")
	flag.Parse()

	policy, err := remote.ParseFsyncPolicy(*fsync)
	if err != nil {
		log.Fatal(err)
	}
	mem, ds, err := openStore(*compress, remote.DurableConfig{Dir: *dataDir, Fsync: policy, SnapshotEvery: *snapshotEvery})
	if err != nil {
		log.Fatal(err)
	}
	// node is what the server serves and the registry exposes: the store,
	// or the log around it.
	var node interface {
		fabric.BlobStore
		Register(*obs.Registry, ...obs.Label)
	} = mem
	if ds != nil {
		node = ds
		fmt.Printf("%s: recovered %s: %s\n", tag, *dataDir, ds.Recovery())
	}
	srv := fabric.NewServer(node)
	if ds != nil {
		srv.SetGeneration(ds.Generation(), true)
	}
	var adm *fabric.Admission
	if *maxQueue > 0 {
		// Wall-clock admission (no Clock): Target/Interval are nanoseconds.
		adm = srv.EnableAdmission(fabric.AdmissionConfig{
			MaxQueue: *maxQueue,
			Target:   uint64(codelTarget.Nanoseconds()),
			Interval: uint64(codelInterval.Nanoseconds()),
		})
	}
	bound, err := srv.ListenAndServe(*addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: serving far memory on %s\n", tag, bound)

	if *metricsAddr != "" {
		reg := obs.NewRegistry()
		srv.Stats().Register(reg)
		node.Register(reg) // store gauges; around a data dir also the WAL/snapshot/recovery series
		if adm != nil {
			adm.Stats().Register(reg)
		}
		// The shared wire buffer pool backs the server's frame payloads
		// and the store's blobs; its hit/miss counters tell an operator
		// whether the allocation-free hot path is actually alloc-free.
		bufpool.Wire.Register(reg)
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		go func() {
			if err := http.Serve(ln, mux); err != nil {
				log.Printf("%s: metrics server: %v", tag, err)
			}
		}()
		fmt.Printf("%s: serving metrics on http://%s/metrics\n", tag, ln.Addr())
	}

	if *stats > 0 {
		go func() {
			for range time.Tick(*stats) {
				fmt.Println(statsLine(tag, mem, srv.Stats(), ds, adm))
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Printf("\n%s: draining (grace %s) | %s\n", tag, *drain, srv.Stats())
	if err := srv.Shutdown(*drain); err != nil {
		log.Printf("%s: shutdown: %v", tag, err)
	}
	if ds != nil {
		// Final compacting snapshot + WAL sync: the next boot recovers
		// from the snapshot alone, with nothing to replay.
		if err := ds.Close(); err != nil {
			log.Printf("%s: close durable store: %v", tag, err)
		}
	}
	fmt.Printf("%s: drained, exiting\n", tag)
}

// openStore builds the node's store from its two storage flags, which are
// independent: one in-memory blob map, holding bytes verbatim or
// compressed, and — when cfg names a data directory — a write-ahead log
// and snapshots around it, recovered into it. ds is nil without one.
func openStore(compress bool, cfg remote.DurableConfig) (mem *remote.Store, ds *remote.DurableStore, err error) {
	mem = remote.NewStore()
	if compress {
		mem = remote.NewCompressedStore()
	}
	if cfg.Dir != "" {
		ds, err = remote.Durable(mem, cfg)
	}
	return mem, ds, err
}

// statsLine renders the stats ticker's line. Every node reports objects,
// bytes at rest, the raw bytes they represent, the server's counters and
// the store's integrity counters; a durable one adds its log, an admitting
// one its queue.
func statsLine(tag string, mem *remote.Store, srv *fabric.ServerStats, ds *remote.DurableStore, adm *fabric.Admission) string {
	ss := mem.Stats()
	line := fmt.Sprintf("%s: %d objects, %d bytes at rest (%d raw) | %s | store sizeMismatches=%d checksumFails=%d",
		tag, mem.Len(), mem.Bytes(), mem.RawBytes(), srv, ss.SizeMismatches, ss.ChecksumFails)
	if ds != nil {
		line += " | wal " + ds.DurableStats().String()
	}
	if adm != nil {
		line += " | adm " + adm.Stats().String()
	}
	return line
}
