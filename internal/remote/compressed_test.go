package remote

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"trackfm/internal/mem/bufpool"
	"trackfm/internal/mem/ctier"
	"trackfm/internal/obs"
)

// What is specific to the compressing store; everything it shares with the
// plain one is store_test.go's table, which runs over both.

func TestCompressedStorePutGet(t *testing.T) {
	s := NewCompressedStore()
	src := bytes.Repeat([]byte("far memory "), 100)
	if err := s.Put(7, src); err != nil {
		t.Fatalf("Put: %v", err)
	}
	dst := make([]byte, len(src))
	ok, err := s.Get(7, dst)
	if err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch")
	}
	if s.Len() != 1 || s.RawBytes() != uint64(len(src)) {
		t.Fatalf("Len=%d RawBytes=%d, want 1/%d", s.Len(), s.RawBytes(), len(src))
	}
	if s.Bytes() >= s.RawBytes() {
		t.Fatalf("compressible payload not compressed: stored %d raw %d", s.Bytes(), s.RawBytes())
	}
}

// Input the codec cannot shrink rests verbatim behind the stream header,
// never larger than that.
func TestCompressedStoreIncompressible(t *testing.T) {
	s := NewCompressedStore()
	src := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(src)
	if err := s.Put(1, src); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if got, want := s.Bytes(), uint64(ctier.MaxEncodedLen(len(src))); got != want {
		t.Fatalf("incompressible payload rests in %d bytes, want the verbatim fallback's %d", got, want)
	}
	dst := make([]byte, len(src))
	if ok, err := s.Get(1, dst); err != nil || !ok {
		t.Fatalf("Get = %v, %v", ok, err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatalf("round trip mismatch")
	}
}

func TestCompressedStoreDetectsCorruptStream(t *testing.T) {
	s := NewCompressedStore()
	src := bytes.Repeat([]byte("abcdefgh"), 128)
	if err := s.Put(9, src); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Flip a byte in the middle of the stream at rest: either the decode
	// fails or the decoded bytes miss the CRC.
	if !s.FlipByte(9, int(s.Bytes())/2) {
		t.Fatalf("FlipByte missed the stream")
	}
	if s.FlipByte(9, int(s.Bytes())) {
		t.Fatalf("FlipByte reached past the %d bytes at rest", s.Bytes())
	}
	dst := make([]byte, len(src))
	ok, err := s.Get(9, dst)
	if !ok || !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupt Get = %v, %v, want true/ErrChecksum", ok, err)
	}
	if st := s.Stats(); st.ChecksumFails != 1 {
		t.Fatalf("ChecksumFails = %d, want 1", st.ChecksumFails)
	}
}

func TestCompressedStoreReplaceAndDeleteAccounting(t *testing.T) {
	bufpool.SetDebug(true)
	defer bufpool.SetDebug(false)
	start := bufpool.Outstanding()
	s := NewCompressedStore()
	if err := s.Put(1, bytes.Repeat([]byte{1}, 1024)); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Put(1, bytes.Repeat([]byte{2}, 2048)); err != nil {
		t.Fatalf("replace Put: %v", err)
	}
	if s.Len() != 1 || s.RawBytes() != 2048 || s.Bytes() >= 2048 {
		t.Fatalf("after replace Len=%d RawBytes=%d Bytes=%d, want 1/2048/less", s.Len(), s.RawBytes(), s.Bytes())
	}
	dst := make([]byte, 2048)
	if ok, err := s.Get(1, dst); err != nil || !ok || dst[0] != 2 {
		t.Fatalf("Get after replace = %v, %v, dst[0]=%d", ok, err, dst[0])
	}
	if err := s.Delete(1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Len() != 0 || s.Bytes() != 0 || s.RawBytes() != 0 {
		t.Fatalf("after delete Len=%d Bytes=%d RawBytes=%d, want zeros", s.Len(), s.Bytes(), s.RawBytes())
	}
	if got := bufpool.Outstanding(); got != start {
		t.Fatalf("leaked %d buffer leases", got-start)
	}
}

// The raw-bytes and ratio gauges exist on a compressing store only: a
// plain node exposes the series it always did.
func TestCompressedStoreRegister(t *testing.T) {
	dump := func(s *Store) string {
		if err := s.Put(1, bytes.Repeat([]byte{7}, 4096)); err != nil {
			t.Fatalf("Put: %v", err)
		}
		reg := obs.NewRegistry()
		s.Register(reg)
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatalf("WritePrometheus: %v", err)
		}
		return b.String()
	}
	compressed, plain := dump(NewCompressedStore()), dump(NewStore())
	for _, series := range []string{
		"trackfm_store_blobs 1",
		"trackfm_store_raw_bytes 4096",
		"trackfm_store_compression_ratio",
	} {
		if !strings.Contains(compressed, series) {
			t.Fatalf("metric %q missing from dump:\n%s", series, compressed)
		}
	}
	for _, series := range []string{"trackfm_store_raw_bytes", "trackfm_store_compression_ratio"} {
		if strings.Contains(plain, series) {
			t.Fatalf("plain store exposes %s:\n%s", series, plain)
		}
	}
}
