// Package ctier implements the compressed-RAM middle tier between the
// resident arena and the remote store: a byte-budgeted cache of
// evacuated-but-warm objects, compressed with an in-repo byte-oriented
// LZ codec, keyed by ObjectID, with a CLOCK eviction ring.
//
// The codec is deliberately snappy-shaped but self-contained — no
// dependencies beyond the standard library. An encoded block is:
//
//	uvarint(decodedLen)
//	flag byte: 0 = raw (decodedLen verbatim bytes follow)
//	           1 = LZ stream
//
// The LZ stream is a sequence of ops, each introduced by a control byte c:
//
//	c&1 == 0: literal run of (c>>1)+1 bytes (1..128), bytes follow
//	c&1 == 1: copy of (c>>1)+4 bytes (4..131) from a 2-byte little-endian
//	          back-offset (1..65535) into the already-decoded output
//
// Encode always falls back to the raw flag when matching does not shrink
// the input, so MaxEncodedLen is a tight small constant over the input
// size and decode of an Encode output can never fail. Decode of arbitrary
// bytes is fully bounds-checked and returns ErrCorrupt — never panics —
// which FuzzCodec enforces.
package ctier

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

const (
	flagRaw = 0
	flagLZ  = 1

	minCopy    = 4
	maxCopy    = 131
	maxLiteral = 128
	maxOffset  = 1<<16 - 1

	tableBits = 13
	tableSize = 1 << tableBits

	// maxBlock bounds the decoded length a block may claim, so a
	// corrupt (or fuzzed) header cannot demand an enormous allocation.
	maxBlock = 1 << 26
)

// ErrCorrupt is returned by Decode for any malformed encoded block.
var ErrCorrupt = errors.New("ctier: corrupt encoded block")

// MaxEncodedLen returns the maximum encoded size of an n-byte input:
// the length header, the flag byte, and the raw fallback payload.
func MaxEncodedLen(n int) int {
	var hdr [binary.MaxVarintLen64]byte
	return binary.PutUvarint(hdr[:], uint64(n)) + 1 + n
}

// DecodedLen returns the decoded length an encoded block claims.
func DecodedLen(src []byte) (int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 || v > maxBlock {
		return 0, ErrCorrupt
	}
	return int(v), nil
}

// An Encoder holds the match-finding hash table so steady-state encoding
// is allocation-free. Encoders are not safe for concurrent use; the tier
// owns one and calls it under its lock. The zero Encoder is ready to use.
//
// The table is never reset per block: a call stamps position i as gen+i,
// and an entry below gen — left by an earlier call — reads as empty, so
// each block sees an empty table without storing 32 KiB to get one. gen
// advances by len(src) per call; the table is cleared only when the next
// block's stamps would overflow int32.
type Encoder struct {
	table [tableSize]int32
	gen   int32
	warm  int32 // what the warming pass read; kept so its loads are not dropped
}

func hash4(v uint32) uint32 {
	// Multiplicative hash over the 4-byte window (Knuth constant).
	return (v * 2654435761) >> (32 - tableBits)
}

func load32(b []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(b[i:])
}

func load64(b []byte, i int) uint64 {
	return binary.LittleEndian.Uint64(b[i:])
}

// Encode compresses src into dst (reallocating only if cap(dst) <
// MaxEncodedLen(len(src))) and returns the encoded block. The result is
// never longer than MaxEncodedLen(len(src)); when the LZ stream would not
// beat storing src verbatim the raw flag is used instead.
func (e *Encoder) Encode(dst, src []byte) []byte {
	need := MaxEncodedLen(len(src))
	if cap(dst) < need {
		dst = make([]byte, need)
	}
	dst = dst[:need]
	n := binary.PutUvarint(dst, uint64(len(src)))
	if len(src) == 0 {
		return dst[:n]
	}
	// Try the LZ stream into the space after the flag byte, capped at
	// one byte less than the raw fallback: if it does not fit there it
	// is not worth keeping.
	w := e.compress(dst[n+1:n+1+len(src)-1], src)
	if w < 0 {
		dst[n] = flagRaw
		copy(dst[n+1:], src)
		return dst[:n+1+len(src)]
	}
	dst[n] = flagLZ
	return dst[:n+1+w]
}

// compress writes the LZ op stream for src into dst and returns the bytes
// written, or -1 if the stream would not fit in dst.
func (e *Encoder) compress(dst, src []byte) int {
	if e.gen <= 0 || int(e.gen) > math.MaxInt32-len(src) {
		clear(e.table[:])
		e.gen = 1
	}
	gen := e.gen
	e.gen += int32(len(src))
	// Read one entry per cache line first. Between two demotions the
	// caller's own work (a fetch over the network) evicts the table from
	// the near caches; the probes would then miss it one line at a time,
	// where this pass streams all 512 lines in. Without it the stamped
	// table encodes a cold block slower than the per-block reset did.
	var w int32
	for k := 0; k < tableSize; k += 64 / 4 {
		w |= e.table[k]
	}
	e.warm = w
	d, litStart, i := 0, 0, 0
	for i+minCopy <= len(src) {
		cur := load32(src, i)
		h := hash4(cur)
		cand := int(e.table[h] - gen)
		e.table[h] = gen + int32(i)
		if cand < 0 || i-cand > maxOffset || load32(src, cand) != cur {
			i++
			continue
		}
		// Extend the match a word at a time up to the first differing
		// byte, and byte by byte over the last few the bound leaves.
		length, limit := minCopy, min(maxCopy, len(src)-i)
		for {
			if length+8 > limit {
				for length < limit && src[cand+length] == src[i+length] {
					length++
				}
				break
			}
			if x := load64(src, i+length) ^ load64(src, cand+length); x != 0 {
				length += bits.TrailingZeros64(x) >> 3
				break
			}
			length += 8
		}
		if run := i - litStart; run > 0 && run <= 16 && d+17 <= len(dst) && litStart+16 <= len(src) {
			// A short literal with room to overshoot: sixteen bytes
			// flat; what lands past run is overwritten by the ops that
			// follow.
			dst[d] = byte((run - 1) << 1)
			move8(dst[d+1:], src[litStart:])
			move8(dst[d+9:], src[litStart+8:])
			d += 1 + run
		} else if run > 0 {
			if d = literals(dst, src, d, litStart, i); d < 0 {
				return -1
			}
		}
		if d+3 > len(dst) {
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
	return literals(dst, src, d, litStart, len(src))
}

// literals writes src[from:to] into dst at d as literal ops and returns
// the new end of dst, or -1 if they do not fit.
func literals(dst, src []byte, d, from, to int) int {
	for from < to {
		run := min(to-from, maxLiteral)
		if d+1+run > len(dst) {
			return -1
		}
		dst[d] = byte((run - 1) << 1)
		copy(dst[d+1:], src[from:from+run])
		d += 1 + run
		from += run
	}
	return d
}

// move8 copies eight bytes from the front of src to the front of dst.
func move8(dst, src []byte) {
	binary.LittleEndian.PutUint64(dst, binary.LittleEndian.Uint64(src))
}

// Decode decompresses the encoded block src into dst (reallocating only
// if cap(dst) is smaller than the decoded length) and returns the decoded
// bytes. Any malformed input — truncated stream, out-of-range copy,
// length mismatch — returns ErrCorrupt; Decode never panics.
func Decode(dst, src []byte) ([]byte, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 || v > maxBlock {
		return nil, ErrCorrupt
	}
	rawLen := int(v)
	if cap(dst) < rawLen {
		dst = make([]byte, rawLen)
	}
	dst = dst[:rawLen]
	src = src[n:]
	if rawLen == 0 {
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
		if len(src) != rawLen {
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
				if s+run > len(src) || d+run > rawLen {
					return nil, ErrCorrupt
				}
				if run <= 16 && s+16 <= len(src) && d+16 <= rawLen {
					// Short literal with room to overshoot: sixteen
					// bytes flat; what lands past run is overwritten
					// by the ops that follow.
					move8(dst[d:], src[s:])
					move8(dst[d+8:], src[s+8:])
				} else {
					copy(dst[d:], src[s:s+run])
				}
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
			if off == 0 || off > d || d+length > rawLen {
				return nil, ErrCorrupt
			}
			switch {
			case length <= 8 && off >= 8 && d+8 <= rawLen:
				// One 8-byte move does. A second, at off < 16, would
				// read back part of what the first just stored, which
				// the store buffer cannot forward.
				move8(dst[d:], dst[d-off:])
			case length <= 16 && off >= 8 && d+16 <= rawLen:
				// Two 8-byte moves in order: with off >= 8 neither
				// reads what it writes, and the second may read
				// what the first wrote, as the format intends.
				move8(dst[d:], dst[d-off:])
				move8(dst[d+8:], dst[d-off+8:])
			case off >= length:
				copy(dst[d:d+length], dst[d-off:])
			default:
				// The copy overlaps its own output (off < length
				// encodes a run), which copy() would break.
				for k := 0; k < length; k++ {
					dst[d+k] = dst[d-off+k]
				}
			}
			d += length
		}
		if d != rawLen {
			return nil, ErrCorrupt
		}
		return dst, nil
	default:
		return nil, ErrCorrupt
	}
}
