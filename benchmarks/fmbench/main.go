// Command fmbench is the wall-clock loopback benchmark and per-layer
// ledger: one process that drives farmem.Heap through core, aifm, ctier and
// bufpool, over fabric.TCPTransport to an in-process fabric.Server and its
// remote store, checks every value read against a shadow model, and prints
// its metrics as one JSON object on the last line of standard output (a
// table goes to standard error). See ../README.md.
//
//	fmbench -workload miss-read -seed 1 -seconds 10 -trace 0   # end-to-end metrics
//	fmbench -workload miss-read -seed 1 -seconds 10 -trace 1   # per-layer metrics + trace.json
//	fmbench -workload all -seconds 10 > a.json                 # every workload, one document
//	fmbench -compare a.json b.json                             # differences against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// logw receives the human-readable side of the output.
var logw io.Writer = os.Stderr

// config is one invocation's arguments.
type config struct {
	seed       uint64
	seconds    float64
	trace      bool
	scale      float64
	outDir     string
	tmpDir     string
	maxRuntime time.Duration
}

// document is what -workload all prints and -compare reads.
type document struct {
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Trace     int                `json:"trace"`
	Workloads map[string]*result `json:"workloads"`
}

func main() {
	code := realMain()
	if c := abortCode.Load(); c != 0 {
		code = int(c)
	}
	os.Exit(code)
}

// abortCode is the exit code the signal or watchdog path asked for.
var abortCode atomic.Int32

func realMain() int {
	var cfg config
	workload := flag.String("workload", "", "workload name, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "seconds measured per workload")
	trace := flag.Int("trace", 0, "0: end-to-end metrics over the plain path; 1: per-layer metrics, spans to <out>/trace.json")
	flag.Float64Var(&cfg.scale, "scale", 1, "shrinks every size (the smoke test uses a small one)")
	flag.StringVar(&cfg.outDir, "out", "benchmarks/out", "directory for trace.json")
	flag.StringVar(&cfg.tmpDir, "tmp", "", "parent of the durable store's temp dir (default $TMPDIR)")
	flag.DurationVar(&cfg.maxRuntime, "max-runtime", 170*time.Second, "per workload: clean up and exit 3 if a run lasts longer")
	compare := flag.Bool("compare", false, "compare two -workload all documents: fmbench -compare a.json b.json")
	specPath := flag.String("spec", "BENCHMARK.json", "BENCHMARK.json, for -compare's bounds")
	flag.Parse()
	cfg.trace = *trace != 0

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: fmbench -compare a.json b.json")
			return 2
		}
		return runCompare(*specPath, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || cfg.seconds <= 0 || cfg.scale <= 0 {
		flag.Usage()
		return 2
	}

	res := &resources{}
	unwound := make(chan struct{})
	defer close(unwound)
	defer res.closeAll()
	watchdog := guard(res, cfg.maxRuntime, unwound)

	todo := []*spec{findSpec(*workload)}
	if *workload == "all" {
		todo = todo[:0]
		for i := range specs {
			todo = append(todo, &specs[i])
		}
	} else if todo[0] == nil {
		fmt.Fprintf(os.Stderr, "fmbench: unknown workload %q; have all", *workload)
		for _, s := range specs {
			fmt.Fprintf(os.Stderr, ", %s", s.name)
		}
		fmt.Fprintln(os.Stderr)
		return 2
	}
	doc := document{Seed: cfg.seed, Seconds: cfg.seconds, Trace: *trace, Workloads: map[string]*result{}}
	var out any = doc
	code := 0
	for _, sp := range todo {
		watchdog.Reset(cfg.maxRuntime)
		r, err := runOne(&cfg, sp, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fmbench:", err)
			return 1
		}
		if !r.Correct {
			fmt.Fprintf(os.Stderr, "fmbench: %s: %d of %d ops failed their check\n", sp.name, r.Failed, r.Attempted)
			code = 1
		}
		doc.Workloads[sp.name] = r
		if *workload != "all" {
			out = r // the harness reads one bare result
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
		return 1
	}
	return code
}

// runOne runs one workload and prints its table.
func runOne(cfg *config, sp *spec, res *resources) (*result, error) {
	rc := &runCtx{seed: cfg.seed, scale: cfg.scale, tmpDir: cfg.tmpDir, res: res}
	var r *result
	var err error
	if cfg.trace {
		r, err = runTraced(rc, sp, cfg.seconds, cfg.outDir)
	} else {
		r, err = runTimed(rc, sp, cfg.seconds)
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(logw, "%s  seed=%d  attempted=%d failed=%d\n", sp.name, cfg.seed, r.Attempted, r.Failed)
	for _, n := range names {
		fmt.Fprintf(logw, "  %-38s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	return r, nil
}

// resources is the clean-up list: every server, heap, transport, durable
// store and temp dir is added when created and closed exactly once, by its
// owner, by main's defer, or by the signal/watchdog path.
type resources struct {
	mu      sync.Mutex
	closed  bool
	closers map[int]func()
	next    int
}

// add registers closer and returns the owner's release function, which
// unregisters and runs it. After closeAll, add runs closer at once.
func (r *resources) add(closer func()) (release func()) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		closer()
		return func() {}
	}
	if r.closers == nil {
		r.closers = map[int]func(){}
	}
	id := r.next
	r.next++
	r.closers[id] = closer
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		_, live := r.closers[id]
		delete(r.closers, id)
		r.mu.Unlock()
		if live {
			closer()
		}
	}
}

func (r *resources) closeAll() {
	r.mu.Lock()
	r.closed = true
	closers := r.closers
	r.closers = nil
	r.mu.Unlock()
	for _, c := range closers {
		c()
	}
}

// guard makes the process clean up after itself when it is told to stop or
// runs too long. Every loop watches the stop flag, so main normally unwinds
// by itself, closing what it opened, and exits with the code set here; if
// it has not within five seconds, everything on the clean-up list is closed
// from here. It returns the watchdog timer.
func guard(res *resources, maxRuntime time.Duration, unwound <-chan struct{}) *time.Timer {
	var once sync.Once
	abort := func(why string, code int32) {
		once.Do(func() {
			fmt.Fprintln(os.Stderr, "fmbench:", why, "- cleaning up")
			abortCode.Store(code)
			stop.Store(true)
			select {
			case <-unwound:
			case <-time.After(5 * time.Second):
				res.closeAll()
				os.Exit(int(code))
			}
		})
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		code := int32(130)
		if s == syscall.SIGTERM {
			code = 143
		}
		abort("caught "+s.String(), code)
	}()
	return time.AfterFunc(maxRuntime, func() { abort("-max-runtime exceeded", 3) })
}
