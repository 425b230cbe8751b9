package aifm

import "testing"

// TestMetaBitBoundaries pins the exact Figure-3 bit assignments the guard
// and the clock rely on: the flag bits must sit where SafeMask expects
// them, and the topmost address bit (55) must stay inside the address
// field rather than leaking into PF (59) or beyond.
func TestMetaBitBoundaries(t *testing.T) {
	cases := []struct {
		name string
		m    Meta
		bit  uint
	}{
		{"P is bit 63", MetaP, 63},
		{"D is bit 62", MetaD, 62},
		{"E is bit 61", MetaE, 61},
		{"H is bit 60", MetaH, 60},
		{"PF is bit 59", MetaPF, 59},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.m != Meta(1)<<c.bit {
				t.Fatalf("flag = %#x, want bit %d", uint64(c.m), c.bit)
			}
		})
	}
	// The 47-bit address field spans bits 55..9: its top bit is 55, one
	// below PF, and LocalMeta with the maximal address must set bit 55
	// without touching any flag.
	top := LocalMeta(1<<46, 0)
	if top&(Meta(1)<<55) == 0 {
		t.Fatalf("address bit 46 did not land on word bit 55")
	}
	if top&(MetaD|MetaE|MetaH|MetaPF) != 0 {
		t.Fatalf("max address leaked into flag bits: %#x", uint64(top))
	}
}

// TestLocalMetaAddrBoundaries drives the 47-bit address mask with
// boundary values: addresses at and past the field width must truncate
// cleanly instead of corrupting flags or the DS id.
func TestLocalMetaAddrBoundaries(t *testing.T) {
	cases := []struct {
		name string
		addr uint64
		want uint64
	}{
		{"zero", 0, 0},
		{"one", 1, 1},
		{"max 47-bit", 1<<47 - 1, 1<<47 - 1},
		{"bit 47 truncated", 1 << 47, 0},
		{"all ones truncated", ^uint64(0), 1<<47 - 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := LocalMeta(c.addr, 0xFF)
			if got := m.DataAddr(); got != c.want {
				t.Fatalf("DataAddr(%#x) = %#x, want %#x", c.addr, got, c.want)
			}
			if !m.Present() {
				t.Fatalf("local meta lost P bit")
			}
			if got := m.DSID(); got != 0xFF {
				t.Fatalf("address %#x corrupted DS id: %d", c.addr, got)
			}
			if m&(MetaD|MetaE|MetaH|MetaPF) != 0 {
				t.Fatalf("address %#x leaked into flags: %#x", c.addr, uint64(m))
			}
		})
	}
}

// TestDSIDBoundaries checks the 8-bit DS id at its wraparound edges in
// both formats: 255 must round-trip, and 256 (as fed by a caller doing
// uint8 arithmetic) wraps to 0 rather than spilling into neighbours.
func TestDSIDBoundaries(t *testing.T) {
	for _, ds := range []uint8{0, 1, 127, 128, 254, 255, uint8(256 % 256)} {
		if got := LocalMeta(1<<47-1, ds).DSID(); got != ds {
			t.Fatalf("local DSID(%d) = %d", ds, got)
		}
		m := RemoteMeta(1<<38-1, 0xFFFF, ds)
		if got := m.DSID(); got != ds {
			t.Fatalf("remote DSID(%d) = %d", ds, got)
		}
		// A maximal DS id must not bleed into the size or id fields.
		if got := m.RemoteSize(); got != 0xFFFF {
			t.Fatalf("DS id %d corrupted size: %#x", ds, got)
		}
		if got := m.RemoteID(); got != 1<<38-1 {
			t.Fatalf("DS id %d corrupted object id: %#x", ds, uint64(got))
		}
	}
}

// TestRemoteMetaFieldLimits exercises the remote format's hard limits:
// size and id at their maxima round-trip, one past panics.
func TestRemoteMetaFieldLimits(t *testing.T) {
	cases := []struct {
		name      string
		id        ObjectID
		size      uint32
		wantPanic bool
	}{
		{"max size", 0, 0xFFFF, false},
		{"size overflow", 0, 0x10000, true},
		{"max id", 1<<38 - 1, 64, false},
		{"id overflow", 1 << 38, 64, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if r := recover(); (r != nil) != c.wantPanic {
					t.Fatalf("panic = %v, wantPanic = %v", r, c.wantPanic)
				}
			}()
			m := RemoteMeta(c.id, c.size, 9)
			if m.RemoteID() != c.id || m.RemoteSize() != c.size {
				t.Fatalf("round trip lost fields: %#x", uint64(m))
			}
		})
	}
}
