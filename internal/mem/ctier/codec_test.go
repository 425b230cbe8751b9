package ctier

import (
	"bytes"
	"encoding/binary"
	"math"
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

// roundTripCorpus is TestCodecRoundTrip's inputs.
func roundTripCorpus() [][]byte {
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
	return cases
}

func TestCodecRoundTrip(t *testing.T) {
	var enc Encoder
	for _, src := range roundTripCorpus() {
		roundTrip(t, &enc, src)
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
		enc.gen = math.MaxInt32 - 100 // every encode clears the table
		e = enc.Encode(scratch, src)
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

// encodeRef is the encoder Encode must agree with byte for byte: the table
// reset to -1 for every block, matches extended a byte at a time.
func encodeRef(src []byte) []byte {
	dst := make([]byte, MaxEncodedLen(len(src)))
	n := binary.PutUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst[:n]
	}
	w := compressRef(dst[n+1:n+1+len(src)-1], src)
	if w < 0 {
		dst[n] = flagRaw
		copy(dst[n+1:], src)
		return dst[:n+1+len(src)]
	}
	dst[n] = flagLZ
	return dst[:n+1+w]
}

func compressRef(dst, src []byte) int {
	var table [tableSize]int32
	for i := range table {
		table[i] = -1
	}
	d, litStart, i := 0, 0, 0
	emitLiterals := func(end int) bool {
		for litStart < end {
			run := end - litStart
			if run > maxLiteral {
				run = maxLiteral
			}
			if d+1+run > len(dst) {
				return false
			}
			dst[d] = byte((run - 1) << 1)
			d++
			copy(dst[d:], src[litStart:litStart+run])
			d += run
			litStart += run
		}
		return true
	}
	for i+minCopy <= len(src) {
		h := hash4(load32(src, i))
		cand := int(table[h])
		table[h] = int32(i)
		if cand < 0 || i-cand > maxOffset || load32(src, cand) != load32(src, i) {
			i++
			continue
		}
		length := minCopy
		for length < maxCopy && i+length < len(src) && src[cand+length] == src[i+length] {
			length++
		}
		if !emitLiterals(i) || d+3 > len(dst) {
			return -1
		}
		off := i - cand
		dst[d] = byte((length-minCopy)<<1) | 1
		dst[d+1] = byte(off)
		dst[d+2] = byte(off >> 8)
		d += 3
		i += length
		litStart = i
	}
	if !emitLiterals(len(src)) {
		return -1
	}
	return d
}

// checkEncodeRef encodes src with enc and with encodeRef: the same bytes.
func checkEncodeRef(t *testing.T, enc *Encoder, src []byte) {
	t.Helper()
	if got, want := enc.Encode(nil, src), encodeRef(src); !bytes.Equal(got, want) {
		t.Fatalf("%d-byte input: Encode gave %d bytes, the reference encoder %d, and they differ", len(src), len(got), len(want))
	}
}

// valueObject fills a 4 KiB object with fmbench's element pattern: a
// 24-bit hash per pair of 8-byte elements, so a 16-byte period.
func valueObject(seed uint64) []byte {
	b := make([]byte, 4096)
	for i := 0; i < len(b)/8; i++ {
		x := (uint64(i>>1)<<8)*0x9E3779B97F4A7C15 ^ seed
		x ^= x >> 32
		x *= 0xD6E8FEB86659FD93
		x ^= x >> 32
		binary.LittleEndian.PutUint64(b[i*8:], x>>40)
	}
	return b
}

// decodeCorpus is TestDecodeMatchesReference's generator: literal
// stretches, short-period runs and far matches, up to 4 KiB.
func decodeCorpus(rng *rand.Rand) []byte {
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
	return src
}

// TestEncodeMatchesReference pins Encode's output to encodeRef: one
// Encoder, reused across every input as the tier reuses its own, so
// positions stamped by earlier blocks must never leak into later ones.
func TestEncodeMatchesReference(t *testing.T) {
	var enc Encoder
	for seed := uint64(0); seed < 256; seed++ {
		checkEncodeRef(t, &enc, valueObject(seed*0x2545F4914F6CDD1D))
	}
	for _, src := range roundTripCorpus() {
		checkEncodeRef(t, &enc, src)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 400; i++ {
		checkEncodeRef(t, &enc, decodeCorpus(rng))
	}
	// Every size 0..5000, half of each input periodic, so matches reach
	// the end of the input and stop short of it by every remainder.
	for n := 0; n <= 5000; n++ {
		src := make([]byte, n)
		rng.Read(src[:n/2])
		for k := n / 2; k < n; k++ {
			src[k] = src[k%13]
		}
		checkEncodeRef(t, &enc, src)
	}
	// Across a generation wrap: the stamps of the next block would
	// overflow int32 after one, two or three more 4 KiB blocks, or at once.
	srcs := [][]byte{valueObject(1), valueObject(2), bytes.Repeat([]byte("abcdefgh"), 512), valueObject(1)}
	for _, start := range []int32{math.MaxInt32 - 3*4096 - 1, math.MaxInt32 - 4096, math.MaxInt32 - 1, math.MaxInt32} {
		enc.gen = start
		for _, src := range srcs {
			checkEncodeRef(t, &enc, src)
		}
		if enc.gen <= 0 || enc.gen > 1+4*4096 {
			t.Fatalf("gen %d after wrapping from %d", enc.gen, start)
		}
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
		block := enc.Encode(nil, decodeCorpus(rng))
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
		// The second encode runs over the first one's stamps.
		if !bytes.Equal(e, encodeRef(data)) || !bytes.Equal(enc.Encode(nil, data), e) {
			t.Fatal("Encode and the reference encoder disagree")
		}
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

// benchShapes are 4 KiB inputs of the three shapes the tier sees: a
// freshly filled fmbench object, a zeroed page and incompressible bytes.
func benchShapes() []struct {
	name string
	src  []byte
} {
	random := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(random)
	return []struct {
		name string
		src  []byte
	}{
		{"value", valueObject(7)},
		{"zeros", make([]byte, 4096)},
		{"random", random},
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) {
			var enc Encoder
			dst := make([]byte, MaxEncodedLen(len(s.src)))
			b.SetBytes(int64(len(s.src)))
			for i := 0; i < b.N; i++ {
				enc.Encode(dst, s.src)
			}
		})
	}
}

func BenchmarkDecode(b *testing.B) {
	for _, s := range benchShapes() {
		b.Run(s.name, func(b *testing.B) {
			var enc Encoder
			block := enc.Encode(nil, s.src)
			dst := make([]byte, len(s.src))
			b.SetBytes(int64(len(s.src)))
			for i := 0; i < b.N; i++ {
				if _, err := Decode(dst, block); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeColdTable encodes the value shape with 128 Encoders in
// turn, 4 MiB of tables, so each block finds its table out of the near
// caches, as a demotion in the far engine does.
func BenchmarkEncodeColdTable(b *testing.B) {
	encs := make([]Encoder, 128)
	src := valueObject(7)
	dst := make([]byte, MaxEncodedLen(len(src)))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		encs[i%len(encs)].Encode(dst, src)
	}
}
