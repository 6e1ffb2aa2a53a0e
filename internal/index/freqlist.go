package index

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// Frequency lists: from BVIX3 version 5 on, a term's frequencies are
// one Elias-γ list beside its docid blob. Most frequencies are 1, which
// γ codes in a single bit.
//
// A value x in [1, 65535] with N = ⌊log₂ x⌋ is N zero bits, a one bit,
// then the low N bits of x, least significant first: 2N+1 bits. Bits
// fill each byte from its least significant bit up, so a decoder loads
// 64 bits little-endian and reads N as the word's trailing zeros. The
// list ends at the next byte boundary, padded with zero bits, and holds
// exactly the term's posting count of values.

// maxFreqExp is ⌊log₂ 65535⌋: no code is longer than 2·15+1 bits.
const maxFreqExp = 15

var errFreqList = errors.New("index: malformed frequency list")

// appendFreqList appends the γ list of n frequencies. freqs[i] is the
// frequency of posting i; a missing or zero one is written as 1, which
// ranks the same (QuantizeImpact floors at 1).
func appendFreqList(dst []byte, freqs []uint16, n int) []byte {
	var acc uint64 // pending bits, the next one at bit 0
	var nb uint    // pending bit count, below 8 between values
	for i := 0; i < n; i++ {
		x := uint64(1)
		if i < len(freqs) && freqs[i] > 0 {
			x = uint64(freqs[i])
		}
		e := uint(bits.Len64(x) - 1)
		acc |= ((x&^(1<<e))<<(e+1) | 1<<e) << nb
		nb += 2*e + 1
		for nb >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nb -= 8
		}
	}
	if nb > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// decodeFreqList decodes a γ list of exactly n frequencies. Truncated
// codes, values above 65535, trailing bytes and non-zero padding are
// errors, so only the bytes appendFreqList writes decode.
func decodeFreqList(src []byte, n int) ([]uint16, error) {
	out := make([]uint16, n)
	total := 8 * len(src)
	pos := 0
	for i := 0; i < n; {
		avail := total - pos
		if avail <= 0 {
			return nil, errFreqList
		}
		w := load64(src, pos>>3) >> (pos & 7)
		if w&1 != 0 {
			// A run of ones is a run of frequency-1 values.
			run := min(bits.TrailingZeros64(^w), n-i)
			for j := range out[i : i+run] {
				out[i+j] = 1
			}
			i += run
			pos += run
			continue
		}
		e := bits.TrailingZeros64(w)
		if e > maxFreqExp || 2*e+1 > avail {
			return nil, errFreqList
		}
		out[i] = uint16(1<<e | (w>>(e+1))&(1<<e-1))
		i++
		pos += 2*e + 1
	}
	if (pos+7)/8 != len(src) || (pos&7 != 0 && src[len(src)-1]>>(pos&7) != 0) {
		return nil, errFreqList
	}
	return out, nil
}

// load64 reads the little-endian word at src[off:], zero-filled past
// the end of src.
func load64(src []byte, off int) uint64 {
	if off+8 <= len(src) {
		return binary.LittleEndian.Uint64(src[off:])
	}
	var b [8]byte
	copy(b[:], src[off:])
	return binary.LittleEndian.Uint64(b[:])
}
