// Package kernels holds the width-specialized, branch-free decode
// kernels behind every bit-unpacking hot path, plus word-batch kernels
// for the bitmap codecs.
//
// The paper's fastest codecs (SIMDBP128*, SIMDPforDelta*) owe their
// decode speed to per-bit-width unpack routines: one fully unrolled,
// branch-free function per width, with all shifts and masks folded to
// constants. Go (stdlib only, no assembly) cannot issue SIMD, so the
// generated kernels here process the same data layouts with unrolled
// 32-bit scalar code — constant word offsets, a leading `_ = src[...]`
// bounds hint, and fixed-size output arrays eliminate per-value bounds
// checks and loop overhead (see DESIGN.md §2).
//
// Two bit-packed layouts are served, byte-identical to the formats the
// codecs have always written:
//
//   - Horizontal (Pack/Unpack): fields packed LSB-first into a byte
//     stream — equivalently, a little-endian uint32 word stream. Used
//     by the PforDelta family's slot arrays.
//   - Vertical 4-lane (VPack128/VUnpack): 128 values as 32 rows x 4
//     lanes; value i sits at (row i/4, lane i%4); each lane packs its
//     32 values into b words and the lanes interleave word-wise — byte
//     for byte the layout a 128-bit SIMD register file would process.
//     Used by the SIMDBP128/SIMDPforDelta codecs.
//
// Three families are generated, each unrolled for widths 0–24 only:
// unpack (horizontal, 32 values), vunpackDelta and vunpackBase (the
// first 127 values of a vertical block fused with the d-gap prefix sum
// or the base add). VUnpack is vunpackBase at base 0 plus one shift for
// value 127. Widths 25–32, which no measured block reaches, decode
// through the generic accumulator loops UnpackRef and VUnpackRef; those
// loops are also the references that property tests, the fuzz
// roundtrip, the oracle and cmd/genkernels's self-check compare the
// kernels against. The generated files (*_gen.go) are committed;
// `go generate ./internal/kernels` rebuilds them and CI fails if they
// drift from the generator.
package kernels

import "encoding/binary"

// BlockLen is the vertical layout's block size (the paper's 128).
const BlockLen = 128

// Pack appends len(vals) fixed-width b-bit fields to dst, LSB-first.
// It is the reference packer (encode is not a hot path).
func Pack(dst []byte, vals []uint32, b uint) []byte {
	var acc uint64
	var nbits uint
	for _, v := range vals {
		acc |= uint64(v&(1<<b-1)) << nbits
		nbits += b
		for nbits >= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
			nbits -= 8
		}
	}
	if nbits > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// UnpackRef reads len(out) b-bit fields from src with the generic
// accumulator loop, returning bytes used. It is the reference the
// specialized kernels are tested against, the decoder of widths 25–32,
// and the tail fallback of Unpack when src has no slack to over-read.
func UnpackRef(src []byte, out []uint32, b uint) int {
	var acc uint64
	var nbits uint
	i := 0
	mask := uint64(1)<<b - 1
	for k := range out {
		for nbits < b {
			acc |= uint64(src[i]) << nbits
			i++
			nbits += 8
		}
		out[k] = uint32(acc & mask)
		acc >>= b
		nbits -= b
	}
	return i
}

// Unpack reads len(out) b-bit fields from src, returning bytes used.
// Full groups of 32 values decode through the width-specialized
// unrolled kernel (32 values at width b always end on a byte boundary,
// so groups chunk cleanly). The tail decodes through the kernel into a
// scratch block when src is long enough to over-read safely, and
// through UnpackRef otherwise.
func Unpack(src []byte, out []uint32, b uint) int {
	n := len(out)
	used := (n*int(b) + 7) / 8
	off := 0
	i := 0
	for ; n-i >= 32; i += 32 {
		unpackDispatch(src[off:], (*[32]uint32)(out[i:i+32]), b)
		off += 4 * int(b)
	}
	if i < n {
		if len(src)-off >= 4*int(b) {
			var tmp [32]uint32
			unpackDispatch(src[off:], &tmp, b)
			copy(out[i:], tmp[:n-i])
		} else {
			UnpackRef(src[off:], out[i:], b)
		}
	}
	return used
}

// VPack128 packs in (128 values, each < 2^b) into 4*b little-endian
// uint32 words appended to dst, in the vertical 4-lane layout. It is
// the reference packer for that layout.
func VPack128(dst []byte, in *[128]uint32, b uint) []byte {
	if b == 0 {
		return dst
	}
	mask := uint32(1)<<b - 1
	if b == 32 {
		mask = ^uint32(0)
	}
	start := len(dst)
	dst = append(dst, make([]byte, 16*b)...)
	out := dst[start:]
	for lane := 0; lane < 4; lane++ {
		var acc uint64
		var nbits uint
		w := lane
		for row := 0; row < 32; row++ {
			acc |= uint64(in[4*row+lane]&mask) << nbits
			nbits += b
			for nbits >= 32 {
				out[4*w] = byte(acc)
				out[4*w+1] = byte(acc >> 8)
				out[4*w+2] = byte(acc >> 16)
				out[4*w+3] = byte(acc >> 24)
				acc >>= 32
				nbits -= 32
				w += 4
			}
		}
	}
	return dst
}

// VUnpackRef reverses VPack128 with the generic accumulator loop,
// filling out from src (16*b bytes) and returning bytes used. It is
// the reference the vertical kernels are tested against and the
// decoder of widths 25–32.
func VUnpackRef(src []byte, out *[128]uint32, b uint) int {
	if b == 0 {
		for i := range out {
			out[i] = 0
		}
		return 0
	}
	mask := uint64(1)<<b - 1
	if b == 32 {
		mask = 0xffffffff
	}
	for lane := 0; lane < 4; lane++ {
		var acc uint64
		var nbits uint
		w := lane
		for row := 0; row < 32; row++ {
			for nbits < b {
				word := uint64(src[4*w]) | uint64(src[4*w+1])<<8 |
					uint64(src[4*w+2])<<16 | uint64(src[4*w+3])<<24
				acc |= word << nbits
				nbits += 32
				w += 4
			}
			out[4*row+lane] = uint32(acc & mask)
			acc >>= b
			nbits -= b
		}
	}
	return int(16 * b)
}

// VUnpack reverses VPack128, returning bytes used (16*b). Values 0–126
// decode through the base kernel at base 0. Value 127 is row 31 of lane
// 3, the top b bits of that lane's last word (output word 4(b-1)+3), so
// one shift finishes the block.
func VUnpack(src []byte, out *[128]uint32, b uint) int {
	vunpackBaseDispatch(src, (*[127]uint32)(out[:127]), 0, b)
	out[127] = 0
	if b > 0 {
		out[127] = binary.LittleEndian.Uint32(src[16*b-4:]) >> (32 - b)
	}
	return int(16 * b)
}

// VUnpackDelta decodes the first 127 b-bit d-gaps of a vertical block
// and prefix-sums them onto prev in the same pass: out[i] holds the
// absolute value prev + gap[0] + ... + gap[i]. One full block of the
// standard frame carries exactly 127 gaps (the first value travels in
// the skip pointer), so full-block decodes need no scratch buffer and
// no separate prefix-sum scan. Returns bytes used (16*b).
func VUnpackDelta(src []byte, out *[127]uint32, prev uint32, b uint) int {
	vunpackDeltaDispatch(src, out, prev, b)
	return int(16 * b)
}

// VUnpackBase decodes the first 127 b-bit offsets of a vertical block
// and adds base in the same pass: out[i] = base + offset[i]. This is
// SIMDBP128*'s offset-from-first layout, which needs no prefix sum at
// all. Returns bytes used (16*b).
func VUnpackBase(src []byte, out *[127]uint32, base uint32, b uint) int {
	vunpackBaseDispatch(src, out, base, b)
	return int(16 * b)
}

// unpackWide, vunpackDeltaWide and vunpackBaseWide serve the widths the
// generated switches do not unroll (25–32) through the reference loops,
// and panic on a width above 32, which no packer writes.
func unpackWide(src []byte, out *[32]uint32, b uint) {
	checkWidth(b)
	UnpackRef(src, out[:], b)
}

func vunpackDeltaWide(src []byte, out *[127]uint32, prev uint32, b uint) {
	checkWidth(b)
	var dec [128]uint32
	VUnpackRef(src, &dec, b)
	for i := range out {
		prev += dec[i]
		out[i] = prev
	}
}

func vunpackBaseWide(src []byte, out *[127]uint32, base uint32, b uint) {
	checkWidth(b)
	var dec [128]uint32
	VUnpackRef(src, &dec, b)
	for i := range out {
		out[i] = base + dec[i]
	}
}

func checkWidth(b uint) {
	if b > 32 {
		panic("kernels: bit width out of range")
	}
}
