package main

import (
	"io"
	"net"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestSmoke runs every workload, timed and traced, for an eighth of a second on
// slices 1/32 the real size, and checks what the benchmark promises about
// itself: the metric names and units are those of BENCHMARK.json, no op
// fails, the workloads isolate the layers they say they isolate, and
// nothing is left behind.
func TestSmoke(t *testing.T) {
	logw = io.Discard
	var bs benchSpec
	if err := readJSON("../../BENCHMARK.json", &bs); err != nil {
		t.Fatal(err)
	}
	if len(bs.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(bs.Workloads), len(specs))
	}
	tmp := t.TempDir()
	baseline := runtime.NumGoroutine()
	res := &resources{}
	cfg := config{seed: 7, seconds: 0.12, scale: 1.0 / 32, outDir: tmp + "/out", tmpDir: tmp}

	layer := map[string]map[string]float64{}
	for _, w := range bs.Workloads {
		sp := findSpec(w.Name)
		if sp == nil {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		for _, traced := range []bool{false, true} {
			cfg.trace = traced
			r, err := runOne(&cfg, sp, res)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.Name, traced, r.Correct, r.Failed, r.Attempted)
			}
			want := bs.EndToEnd
			if traced {
				want = bs.PerLayer
				layer[w.Name] = map[string]float64{}
			}
			if len(r.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json lists %d", w.Name, traced, len(r.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := r.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
				if traced {
					layer[w.Name][m.Name] = got.Value
				}
			}
		}
	}

	if v := layer["hot-guard"]["fabric.frames_per_op"]; v != 0 {
		t.Errorf("hot-guard: %v frames per op, want 0", v)
	}
	if v := layer["miss-read"]["aifm.evict_bytes_per_op"]; v != 0 {
		t.Errorf("miss-read: %v bytes pushed per op, want 0", v)
	}
	for name, m := range layer {
		if hit := m["ctier.hit_ratio"]; (hit > 0) != (name == "miss-read-tier") {
			t.Errorf("%s: ctier.hit_ratio = %v", name, hit)
		}
		if wal := m["remote.wal_bytes_per_user_byte"]; (wal > 0) != (name == "miss-write-durable") {
			t.Errorf("%s: remote.wal_bytes_per_user_byte = %v", name, wal)
		}
		if name == "hot-guard" || name == "compiled-run" {
			continue
		}
		// The three self times partition the op span.
		sum := m["farmem.self_us_per_op"] + m["fabric.self_us_per_op"] + m["remote.self_us_per_op"]
		if mean := m["bench.op_span_mean_us"]; sum < 0.95*mean || sum > 1.05*mean {
			t.Errorf("%s: self times sum to %v us, mean op span is %v us", name, sum, mean)
		}
	}

	// A released rig leaves no listener and no data dir.
	rc := &runCtx{seed: 7, scale: cfg.scale, tmpDir: tmp, res: res}
	inst, err := findSpec("miss-write-durable").build(rc, findSpec("miss-write-durable"), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, dir := inst.rig.addr, inst.rig.dir
	if c, err := net.Dial("tcp", addr); err != nil {
		t.Errorf("live rig does not accept on %s: %v", addr, err)
	} else {
		c.Close()
	}
	inst.release()
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("port %s still accepts connections after release", addr)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("data dir %s still exists after release", dir)
	}

	res.closeAll()
	left, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		if e.Name() != "out" {
			t.Errorf("%s left behind in the temp dir", e.Name())
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines running, %d before the run\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
