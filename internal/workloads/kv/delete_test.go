package kv

import (
	"testing"

	"trackfm/internal/sim"
)

func TestDeleteBasics(t *testing.T) {
	acc := localBackend(t)
	st, _ := NewStore(acc, 100)
	st.Set(1, 16, 25)
	st.Set(2, 16, 25)
	if !st.Delete(1) {
		t.Fatalf("Delete of present key returned false")
	}
	if st.Delete(1) {
		t.Fatalf("double Delete returned true")
	}
	if st.Items() != 1 {
		t.Fatalf("Items = %d after delete", st.Items())
	}
	buf := make([]byte, 64)
	if _, ok := st.Get(1, buf); ok {
		t.Fatalf("deleted key still readable")
	}
	if _, ok := st.Get(2, buf); !ok {
		t.Fatalf("unrelated key lost")
	}
}

func TestDeleteRecyclesSlabItems(t *testing.T) {
	acc := localBackend(t)
	st, _ := NewStore(acc, 100)
	st.Set(1, 16, 10) // class 64
	itemAddr := func(key uint64) uint64 {
		h := hashKey(key)
		slot := h & (st.idxSlots - 1)
		for {
			addr := st.idxBase + slot*16
			if st.be.Load(addr, true) == h {
				return st.be.Load(addr+8, true)
			}
			slot = (slot + 1) & (st.idxSlots - 1)
		}
	}
	old := itemAddr(1)
	st.Delete(1)
	st.Set(99, 16, 10) // same class: must reuse the freed item
	if got := itemAddr(99); got != old {
		t.Fatalf("slab item not recycled: %d vs %d", got, old)
	}
}

func TestDeleteTombstoneProbing(t *testing.T) {
	// Force a probe chain, delete the middle element, and verify keys
	// beyond the tombstone remain reachable and reinsertions reuse it.
	acc := localBackend(t)
	st, _ := NewStore(acc, 4) // 8 slots: collisions guaranteed
	for key := uint64(1); key <= 6; key++ {
		if err := st.Set(key, 16, 2); err != nil {
			t.Fatalf("Set(%d): %v", key, err)
		}
	}
	st.Delete(3)
	buf := make([]byte, 16)
	for key := uint64(1); key <= 6; key++ {
		_, ok := st.Get(key, buf)
		if key == 3 && ok {
			t.Fatalf("deleted key 3 found")
		}
		if key != 3 && !ok {
			t.Fatalf("key %d unreachable after tombstone", key)
		}
	}
	// Reinsert: must succeed and be readable.
	if err := st.Set(3, 16, 2); err != nil {
		t.Fatalf("reinsert: %v", err)
	}
	if _, ok := st.Get(3, buf); !ok {
		t.Fatalf("reinserted key missing")
	}
	if st.Items() != 6 {
		t.Fatalf("Items = %d, want 6", st.Items())
	}
}

func TestDeleteChurnAgainstModel(t *testing.T) {
	// Random set/get/delete churn, cross-checked against a Go map.
	acc := localBackend(t)
	st, _ := NewStore(acc, 256)
	model := map[uint64]int{}
	rng := sim.NewRNG(31)
	buf := make([]byte, 1024)
	for step := 0; step < 5000; step++ {
		key := uint64(rng.Intn(200)) + 1
		switch rng.Intn(3) {
		case 0:
			vl := 2 + rng.Intn(200)
			if err := st.Set(key, 16, vl); err != nil {
				t.Fatalf("Set: %v", err)
			}
			model[key] = vl
		case 1:
			got := st.Delete(key)
			_, want := model[key]
			if got != want {
				t.Fatalf("step %d: Delete(%d) = %v, want %v", step, key, got, want)
			}
			delete(model, key)
		default:
			n, ok := st.Get(key, buf)
			vl, want := model[key]
			if ok != want || (ok && n != vl) {
				t.Fatalf("step %d: Get(%d) = (%d,%v), want (%d,%v)", step, key, n, ok, vl, want)
			}
		}
	}
	if st.Items() != len(model) {
		t.Fatalf("Items = %d, model has %d", st.Items(), len(model))
	}
}
