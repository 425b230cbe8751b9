package remote

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"testing/quick"
)

// eachCodec runs fn against a fresh store of either kind: Store's contract
// does not depend on how it holds bytes at rest, so every test in this
// file is one row run over both constructors.
func eachCodec(t *testing.T, fn func(t *testing.T, s *Store)) {
	for _, c := range []struct {
		name string
		new  func() *Store
	}{{"plain", NewStore}, {"compressed", NewCompressedStore}} {
		t.Run(c.name, func(t *testing.T) { fn(t, c.new()) })
	}
}

// mustGet is the test shorthand for a Get that must not surface an
// integrity error.
func mustGet(t *testing.T, s *Store, key uint64, dst []byte) bool {
	t.Helper()
	found, err := s.Get(key, dst)
	if err != nil {
		t.Fatalf("Get(%d): %v", key, err)
	}
	return found
}

func TestStorePutGet(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		s.Put(7, []byte{1, 2, 3, 4})
		dst := make([]byte, 4)
		if !mustGet(t, s, 7, dst) {
			t.Fatalf("Get(7) missed after Put")
		}
		if !bytes.Equal(dst, []byte{1, 2, 3, 4}) {
			t.Fatalf("Get returned %v", dst)
		}
	})
}

func TestStoreClear(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		s.Put(1, []byte{1, 2})
		s.Put(2, []byte{3})
		s.Clear()
		if s.Len() != 0 || s.Bytes() != 0 || s.RawBytes() != 0 {
			t.Fatalf("after Clear: len=%d bytes=%d raw=%d", s.Len(), s.Bytes(), s.RawBytes())
		}
		if mustGet(t, s, 1, make([]byte, 2)) {
			t.Fatalf("Get found a blob after Clear")
		}
	})
}

// Regression: Clear must also reset the fault-hook damage and the
// integrity counters it caused, so a harness reusing one store across
// scenarios cannot see phase A's corruption events bleed into phase B's
// assertions. Only the lifetime clear count survives.
func TestStoreClearResetsFaultStateAndStats(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		s.Put(1, []byte{1, 2, 3, 4})
		if !s.FlipByte(1, 2) {
			t.Fatalf("FlipByte(1, 2) found nothing to corrupt")
		}
		if _, err := s.Get(1, make([]byte, 4)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("Get after FlipByte: err=%v, want ErrChecksum", err)
		}
		if st := s.Stats(); st.ChecksumFails != 1 {
			t.Fatalf("ChecksumFails=%d before Clear, want 1", st.ChecksumFails)
		}
		s.Clear()
		if st := s.Stats(); st != (StoreStats{}) {
			t.Fatalf("Clear left integrity counters: %+v", st)
		}
		if got := s.Clears(); got != 1 {
			t.Fatalf("Clears()=%d, want 1", got)
		}
		// The corrupted blob is gone with its CRC state: a re-put key reads
		// back clean.
		s.Put(1, []byte{5, 6, 7, 8})
		dst := make([]byte, 4)
		if !mustGet(t, s, 1, dst) || !bytes.Equal(dst, []byte{5, 6, 7, 8}) {
			t.Fatalf("re-put after Clear reads %v", dst)
		}
		if st := s.Stats(); st != (StoreStats{}) {
			t.Fatalf("clean re-put bumped integrity counters: %+v", st)
		}
		s.Clear()
		if got := s.Clears(); got != 2 {
			t.Fatalf("Clears()=%d after second Clear, want 2", got)
		}
	})
}

func TestStoreGetMissingZeroFills(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		dst := []byte{9, 9, 9}
		if mustGet(t, s, 1, dst) {
			t.Fatalf("Get on empty store reported found")
		}
		if !bytes.Equal(dst, []byte{0, 0, 0}) {
			t.Fatalf("missing Get did not zero-fill: %v", dst)
		}
	})
}

// A stored blob shorter than the read is corruption, not a miss: the old
// zero-fill-the-tail behaviour fabricated data.
func TestStoreGetShortBlobIsSizeMismatch(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		s.Put(1, []byte{5, 6})
		dst := make([]byte, 4)
		found, err := s.Get(1, dst)
		if !found {
			t.Fatalf("Get missed")
		}
		if !errors.Is(err, ErrSizeMismatch) {
			t.Fatalf("short blob read err = %v, want ErrSizeMismatch", err)
		}
		if got := s.Stats().SizeMismatches; got != 1 {
			t.Fatalf("SizeMismatches = %d, want 1", got)
		}
	})
}

// The payload is long and repetitive so the compressing store serves the
// prefix out of a real LZ stream, not its verbatim fallback.
func TestStoreGetLongBlobServesPrefix(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		src := bytes.Repeat([]byte{0xAB, 0xCD, 0xEF}, 400)
		s.Put(1, src)
		dst := make([]byte, 100)
		if !mustGet(t, s, 1, dst) {
			t.Fatalf("Get missed")
		}
		if !bytes.Equal(dst, src[:100]) {
			t.Fatalf("prefix read = %v", dst)
		}
	})
}

// FlipByte corrupts stored bytes under the recorded CRC; the next Get must
// answer ErrChecksum instead of serving the corrupt blob, whatever width
// it reads.
func TestStoreChecksumDetectsBitRot(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		s.Put(3, []byte{10, 20, 30, 40})
		if !s.FlipByte(3, 2) {
			t.Fatalf("FlipByte missed an existing blob")
		}
		found, err := s.Get(3, make([]byte, 4))
		if !found {
			t.Fatalf("Get missed")
		}
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("corrupt blob read err = %v, want ErrChecksum", err)
		}
		// The checksum is judged before the length: a corrupt blob read
		// too wide is still reported as corrupt.
		if _, err := s.Get(3, make([]byte, 8)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("wide read of a corrupt blob err = %v, want ErrChecksum", err)
		}
		// A prefix read verifies the whole blob: it fails too, though the
		// flipped byte (at rest on a plain store) lies past the prefix.
		if _, err := s.Get(3, make([]byte, 2)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("prefix read of a corrupt blob err = %v, want ErrChecksum", err)
		}
		if got := s.Stats(); got != (StoreStats{ChecksumFails: 3}) {
			t.Fatalf("stats = %+v, want 3 checksum fails and nothing else", got)
		}
		// A fresh Put heals the key.
		s.Put(3, []byte{1, 1, 1, 1})
		dst := make([]byte, 4)
		if !mustGet(t, s, 3, dst) || !bytes.Equal(dst, []byte{1, 1, 1, 1}) {
			t.Fatalf("Put did not heal corrupted key: %v", dst)
		}
	})
}

func TestStoreReplaceAccounting(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		s.Put(1, make([]byte, 100))
		s.Put(1, make([]byte, 40))
		if s.RawBytes() != 40 || (s.enc == nil && s.Bytes() != 40) {
			t.Fatalf("after replace: Bytes() = %d RawBytes() = %d, want 40", s.Bytes(), s.RawBytes())
		}
		if s.Len() != 1 {
			t.Fatalf("Len() = %d, want 1", s.Len())
		}
		s.Delete(1)
		if s.Bytes() != 0 || s.RawBytes() != 0 || s.Len() != 0 {
			t.Fatalf("delete accounting wrong: bytes=%d raw=%d len=%d", s.Bytes(), s.RawBytes(), s.Len())
		}
		s.Delete(1) // absent delete is a no-op
	})
}

func TestStorePutCopies(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		src := []byte{1, 2, 3}
		s.Put(1, src)
		src[0] = 99
		dst := make([]byte, 3)
		mustGet(t, s, 1, dst)
		if dst[0] != 1 {
			t.Fatalf("Put aliased caller buffer")
		}
	})
}

// Eight writers on their own keys, each reading back what it just wrote,
// whole and as a prefix. The payloads are compressible and keep their
// width, so on the compressing store the one encoder and its scratch, the
// in-place overwrite and the pooled prefix decode all run contended; under
// -race a use of any of them outside the store's lock fails here.
func TestStoreConcurrent(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, 512)
				for i := 0; i < 500; i++ {
					key := uint64(g*1000 + i%50)
					src := bytes.Repeat([]byte{byte(g), byte(i), byte(i >> 8), 7}, 128)
					s.Put(key, src)
					for _, n := range []int{len(src), 9} {
						if _, err := s.Get(key, buf[:n]); err != nil || !bytes.Equal(buf[:n], src[:n]) {
							t.Errorf("Get(%d, %d bytes): err=%v, bytes match=%v", key, n, err, bytes.Equal(buf[:n], src[:n]))
							return
						}
					}
					if i%10 == 0 {
						s.Delete(key)
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

func TestStoreRoundTripProperty(t *testing.T) {
	eachCodec(t, func(t *testing.T, s *Store) {
		if err := quick.Check(func(key uint64, payload []byte) bool {
			s.Put(key, payload)
			dst := make([]byte, len(payload))
			found, err := s.Get(key, dst)
			if !found || err != nil {
				return false
			}
			return bytes.Equal(dst, payload)
		}, nil); err != nil {
			t.Error(err)
		}
	})
}
