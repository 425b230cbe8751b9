package ctier

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// roundTrip encodes src and decodes the result, failing on any mismatch.
func roundTrip(t *testing.T, enc *Encoder, src []byte) {
	t.Helper()
	e := enc.Encode(nil, src)
	if len(e) > MaxEncodedLen(len(src)) {
		t.Fatalf("encoded %d bytes into %d > MaxEncodedLen %d", len(src), len(e), MaxEncodedLen(len(src)))
	}
	if n, err := DecodedLen(e); err != nil || n != len(src) {
		t.Fatalf("DecodedLen = %d, %v; want %d", n, err, len(src))
	}
	got, err := Decode(nil, e)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(got))
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var enc Encoder
	rng := rand.New(rand.NewSource(42))
	cases := [][]byte{
		nil,
		{},
		{0},
		[]byte("a"),
		[]byte("abcd"),
		[]byte("abcabcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{0}, 4096),
		bytes.Repeat([]byte("0123456789abcdef"), 4096), // 64 KiB periodic
	}
	// Incompressible random blocks of assorted sizes.
	for _, n := range []int{1, 3, 4, 5, 64, 127, 128, 129, 4096, 65536} {
		b := make([]byte, n)
		rng.Read(b)
		cases = append(cases, b)
	}
	// Half-compressible: random prefix, repeated suffix.
	for _, n := range []int{256, 4096} {
		b := make([]byte, n)
		rng.Read(b[:n/2])
		copy(b[n/2:], bytes.Repeat([]byte{0xAB}, n/2))
		cases = append(cases, b)
	}
	for i, src := range cases {
		roundTrip(t, &enc, src)
		_ = i
	}
}

func TestCodecCompresses(t *testing.T) {
	var enc Encoder
	src := bytes.Repeat([]byte("the quick brown fox "), 200)
	e := enc.Encode(nil, src)
	if len(e) >= len(src)/2 {
		t.Fatalf("periodic text should compress well: %d -> %d", len(src), len(e))
	}
	src = make([]byte, 4096)
	rand.New(rand.NewSource(7)).Read(src)
	e = enc.Encode(nil, src)
	if len(e) > MaxEncodedLen(len(src)) {
		t.Fatalf("random block blew past MaxEncodedLen: %d", len(e))
	}
}

func TestCodecScratchReuseNoAlloc(t *testing.T) {
	var enc Encoder
	src := bytes.Repeat([]byte("abcdefgh"), 512)
	scratch := make([]byte, MaxEncodedLen(len(src)))
	dst := make([]byte, len(src))
	e := enc.Encode(scratch, src)
	allocs := testing.AllocsPerRun(100, func() {
		e = enc.Encode(scratch, src)
		out, err := Decode(dst, e)
		if err != nil || len(out) != len(src) {
			t.Fatal("round trip failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state encode+decode allocated %.1f/op, want 0", allocs)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	var enc Encoder
	src := bytes.Repeat([]byte("abcabcabc"), 100)
	e := enc.Encode(nil, src)
	// Truncations.
	for _, n := range []int{0, 1, 2, len(e) / 2, len(e) - 1} {
		if n >= len(e) {
			continue
		}
		if _, err := Decode(nil, e[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// A claimed length beyond maxBlock must be rejected up front.
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := Decode(nil, huge); err == nil {
		t.Fatal("oversize header decoded cleanly")
	}
	if _, err := DecodedLen(huge); err == nil {
		t.Fatal("oversize header passed DecodedLen")
	}
	// An unknown flag byte.
	bad := append([]byte{4, 9}, 1, 2, 3, 4)
	if _, err := Decode(nil, bad); err == nil {
		t.Fatal("unknown flag decoded cleanly")
	}
}

// decodeRef is the decoder Decode must agree with: the LZ stream taken
// one op at a time, every match copied a byte at a time.
func decodeRef(src []byte) ([]byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 || v > maxBlock {
		return nil, ErrCorrupt
	}
	dst := make([]byte, int(v))
	src = src[n:]
	if len(dst) == 0 {
		if len(src) != 0 {
			return nil, ErrCorrupt
		}
		return dst, nil
	}
	if len(src) < 1 {
		return nil, ErrCorrupt
	}
	flag := src[0]
	src = src[1:]
	switch flag {
	case flagRaw:
		if len(src) != len(dst) {
			return nil, ErrCorrupt
		}
		copy(dst, src)
		return dst, nil
	case flagLZ:
		d, s := 0, 0
		for s < len(src) {
			c := src[s]
			s++
			if c&1 == 0 {
				run := int(c>>1) + 1
				if s+run > len(src) || d+run > len(dst) {
					return nil, ErrCorrupt
				}
				copy(dst[d:], src[s:s+run])
				s += run
				d += run
				continue
			}
			length := int(c>>1) + minCopy
			if s+2 > len(src) {
				return nil, ErrCorrupt
			}
			off := int(src[s]) | int(src[s+1])<<8
			s += 2
			if off == 0 || off > d || d+length > len(dst) {
				return nil, ErrCorrupt
			}
			for k := 0; k < length; k++ {
				dst[d+k] = dst[d-off+k]
			}
			d += length
		}
		if d != len(dst) {
			return nil, ErrCorrupt
		}
		return dst, nil
	default:
		return nil, ErrCorrupt
	}
}

// checkAgainstRef decodes block with both decoders: same verdict, and on
// success the same bytes.
func checkAgainstRef(t *testing.T, block []byte) {
	t.Helper()
	got, err := Decode(nil, block)
	want, werr := decodeRef(block)
	if err != werr {
		t.Fatalf("Decode error %v, reference decoder %v", err, werr)
	}
	if err == nil && !bytes.Equal(got, want) {
		t.Fatal("Decode and the reference decoder disagree on the bytes")
	}
}

// TestDecodeMatchesReference covers the copy shapes Decode special-cases —
// short and long literals and matches, offsets under 8, between 8 and the
// length, and past it, with and without 16 bytes of slack at the end —
// on valid blocks and on the same blocks corrupted.
func TestDecodeMatchesReference(t *testing.T) {
	var enc Encoder
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		src := make([]byte, 0, 4096)
		for len(src) < 1+rng.Intn(4096) {
			switch rng.Intn(3) {
			case 0: // a literal stretch
				b := make([]byte, 1+rng.Intn(40))
				rng.Read(b)
				src = append(src, b...)
			case 1: // a run of period 1..24: overlapping matches
				period, n := 1+rng.Intn(24), 4+rng.Intn(150)
				for k := 0; k < n && len(src) >= period; k++ {
					src = append(src, src[len(src)-period])
				}
			default: // a far match
				if len(src) > 32 {
					from := rng.Intn(len(src) - 20)
					src = append(src, src[from:from+4+rng.Intn(16)]...)
				}
			}
		}
		block := enc.Encode(nil, src)
		checkAgainstRef(t, block)
		for k := 0; k < 8; k++ {
			bad := append([]byte(nil), block...)
			bad[rng.Intn(len(bad))] ^= 1 << rng.Intn(8)
			checkAgainstRef(t, bad)
			checkAgainstRef(t, bad[:rng.Intn(len(bad))])
		}
	}
}

// FuzzCodec checks both directions: Encode output must round-trip
// byte-identically, and Decode of arbitrary bytes must either succeed or
// return ErrCorrupt — never panic, never read or write out of bounds —
// and either way agree with decodeRef.
func FuzzCodec(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello hello hello"))
	f.Add(bytes.Repeat([]byte{0}, 300))
	f.Add([]byte{4, 1, 0x06, 'a', 'b', 'c', 'd', 0xFF, 1, 0}) // hand-built LZ block
	f.Add([]byte{4, 0, 'a', 'b', 'c', 'd'})                   // raw block
	f.Fuzz(func(t *testing.T, data []byte) {
		var enc Encoder
		e := enc.Encode(nil, data)
		if len(e) > MaxEncodedLen(len(data)) {
			t.Fatalf("encode overflow: %d > %d", len(e), MaxEncodedLen(len(data)))
		}
		got, err := Decode(nil, e)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("round trip mismatch")
		}
		checkAgainstRef(t, e)
		checkAgainstRef(t, data)
		// Treat the input as a (likely corrupt) encoded block: must not
		// panic, and on success must honour the claimed length.
		if out, err := Decode(nil, data); err == nil {
			if n, lerr := DecodedLen(data); lerr != nil || len(out) != n {
				t.Fatalf("inconsistent decode: len %d vs header %d (%v)", len(out), n, lerr)
			}
		}
	})
}
