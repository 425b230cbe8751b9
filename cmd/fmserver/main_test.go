package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"trackfm/internal/fabric"
	"trackfm/internal/remote"
)

// The stats line is one path for every node: the two storage flags are
// independent, so each of their four combinations builds, takes a push and
// reports the same leading fields, with the wal section iff there is a
// data directory and the adm section iff admission is on — under
// -compress too, where the line used to stop before it.
func TestStatsLine(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 4096)
	for _, row := range []struct {
		name              string
		compress, durable bool
	}{
		{"plain", false, false},
		{"-compress", true, false},
		{"-data-dir", false, true},
		{"-compress -data-dir", true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			var cfg remote.DurableConfig
			if row.durable {
				cfg.Dir = t.TempDir()
			}
			mem, ds, err := openStore(row.compress, cfg)
			if err != nil {
				t.Fatalf("openStore: %v", err)
			}
			if (ds != nil) != row.durable {
				t.Fatalf("durable store = %v, want one iff a data dir is set", ds)
			}
			var node fabric.BlobStore = mem
			if ds != nil {
				node = ds
				defer ds.Close()
			}
			srv := fabric.NewServer(node)
			adm := srv.EnableAdmission(fabric.AdmissionConfig{MaxQueue: 256})
			if err := node.Put(1, payload); err != nil {
				t.Fatalf("Put: %v", err)
			}

			atRest := uint64(len(payload))
			if row.compress {
				if atRest = mem.Bytes(); atRest >= uint64(len(payload)) {
					t.Fatalf("compressing node holds %d bytes at rest for a %d-byte run of one value", atRest, len(payload))
				}
			}
			head := fmt.Sprintf("fmserver: 1 objects, %d bytes at rest (%d raw) | conns=0 ", atRest, len(payload))
			wal := " | wal walAppends=2 " // the generation bump and the push
			for _, admission := range []*fabric.Admission{adm, nil} {
				line := statsLine("fmserver", mem, srv.Stats(), ds, admission)
				if !strings.HasPrefix(line, head) || !strings.Contains(line, " | store sizeMismatches=0 checksumFails=0") {
					t.Errorf("line %q\n does not open with %q and carry the integrity counters", line, head)
				}
				if strings.Contains(line, wal) != row.durable {
					t.Errorf("line %q: wal section present = %v, want %v", line, !row.durable, row.durable)
				}
				if strings.Contains(line, " | adm admitted=0 ") != (admission != nil) {
					t.Errorf("line %q: adm section does not follow admission = %v", line, admission != nil)
				}
				if row.durable && admission != nil && strings.Index(line, " | wal ") > strings.Index(line, " | adm ") {
					t.Errorf("line %q: wal section should precede adm", line)
				}
			}
		})
	}
}
