package intlist

import (
	"repro/internal/core"
	"repro/internal/kernels"
)

// Vertical 4-lane bit packing — the SIMD-BP128 data layout (§3.10-3.11).
//
// 128 values are viewed as 32 rows of 4 lanes; value i sits at
// (row i/4, lane i%4). Each lane packs its 32 values at b bits into
// exactly b 32-bit words, and the four lanes interleave word-wise, so
// word k of the output is the four lane words of "bit-slice" k — byte
// for byte the layout a 128-bit SIMD register file would process. Go
// (stdlib only) cannot issue SIMD instructions, so internal/kernels
// processes the same layout with generated width-specialized unrolled
// scalar code; see DESIGN.md §2 for the substitution rationale.
//
// The four SIMD-layout codecs all use this packing inside the standard
// block frame, which VB-codes a short last block instead when that is
// smaller (Blocked.Compress):
//
//   - SIMDBP128: per-block bit width over d-gaps, pure packing.
//   - SIMDBP128*: not d-gap based (§3 overview) — packs offsets from the
//     block's first value, so decoding needs no prefix sum and in-block
//     probes touch single slots. Fastest decompression and union.
//   - SIMDPforDelta: PforDelta's 90% width rule over d-gaps with
//     exceptions patched from VB side arrays.
//   - SIMDPforDelta*: exception-free width over d-gaps — least space of
//     the paper's recommended trio, at the cost of prefix summing.

// NewSIMDBP128 returns SIMDBP128 in the standard frame.
func NewSIMDBP128() core.Codec { return NewBlocked(simdBP128Block{}) }

type simdBP128Block struct{}

func (simdBP128Block) Name() string { return "SIMDBP128" }

func (simdBP128Block) EncodeBlock(dst []byte, block []uint32) []byte {
	var in [128]uint32
	gaps := blockGaps(block, &in)
	b := maxBits(gaps)
	clearTail(&in, len(gaps))
	// 4-byte header keeps the packed payload 32-bit aligned the way the
	// original's 16-byte bucket metadata does (amortized per block).
	dst = append(dst, byte(b), 0, 0, 0)
	return kernels.VPack128(dst, &in, b)
}

func (simdBP128Block) DecodeBlock(src []byte, out []uint32) int {
	if len(out) <= 1 {
		return 0
	}
	return 4 + vdecodeDelta(src[4:], out, uint(src[0]))
}

// NewSIMDBP128Star returns SIMDBP128* in the standard frame.
func NewSIMDBP128Star() core.Codec { return NewBlocked(simdBP128StarBlock{}) }

type simdBP128StarBlock struct{}

func (simdBP128StarBlock) Name() string { return "SIMDBP128*" }

func (simdBP128StarBlock) EncodeBlock(dst []byte, block []uint32) []byte {
	var in [128]uint32
	first := block[0]
	for i := 1; i < len(block); i++ {
		in[i-1] = block[i] - first
	}
	b := maxBits(in[:len(block)-1])
	clearTail(&in, len(block)-1)
	dst = append(dst, byte(b))
	return kernels.VPack128(dst, &in, b)
}

func (simdBP128StarBlock) DecodeBlock(src []byte, out []uint32) int {
	if len(out) <= 1 {
		return 0
	}
	return 1 + vdecodeBase(src[1:], out, uint(src[0]))
}

// NewSIMDPforDelta returns SIMDPforDelta in the standard frame.
func NewSIMDPforDelta() core.Codec { return NewBlocked(SIMDPforDeltaBlock()) }

// SIMDPforDeltaBlock exposes the bare block codec (used by the Figure 7
// ablation).
func SIMDPforDeltaBlock() BlockCodec { return simdPFDBlock{} }

type simdPFDBlock struct{}

func (simdPFDBlock) Name() string { return "SIMDPforDelta" }

func (simdPFDBlock) EncodeBlock(dst []byte, block []uint32) []byte {
	var in [128]uint32
	gaps := blockGaps(block, &in)
	b := pfdChooseB(gaps)
	if b > 32 {
		b = 32
	}
	var excPos []int
	for i, g := range gaps {
		if b < 32 && uint64(g) >= 1<<b {
			excPos = append(excPos, i)
		}
	}
	clearTail(&in, len(gaps))
	dst = append(dst, byte(b), byte(len(excPos)))
	// Slots hold the low b bits of every gap in the vertical layout.
	var slots [128]uint32
	mask := uint32(1)<<b - 1
	if b == 32 {
		mask = ^uint32(0)
	}
	for i := range slots {
		slots[i] = in[i] & mask
	}
	dst = kernels.VPack128(dst, &slots, b)
	prev := 0
	for _, pos := range excPos {
		dst = PutVB(dst, uint32(pos-prev))
		prev = pos
	}
	for _, pos := range excPos {
		dst = PutVB(dst, gaps[pos]>>b)
	}
	return dst
}

func (simdPFDBlock) DecodeBlock(src []byte, out []uint32) int {
	if len(out) <= 1 {
		return 0
	}
	b := uint(src[0])
	excCount := int(src[1])
	if excCount == 0 {
		// An exception-free block decodes exactly like SIMDPforDelta*.
		return 2 + vdecodeDelta(src[2:], out, b)
	}
	// Exception positions index the block's gaps, so all fall below 127.
	var dec [BlockSize - 1]uint32
	used := 2 + kernels.VUnpackBase(src[2:], &dec, 0, b)
	var positions [BlockSize]int
	pos := 0
	for j := 0; j < excCount; j++ {
		var d uint32
		d, used = GetVB(src, used)
		pos += int(d)
		positions[j] = pos
	}
	for j := 0; j < excCount; j++ {
		var high uint32
		high, used = GetVB(src, used)
		dec[positions[j]] |= high << b
	}
	prev := out[0]
	for k := 1; k < len(out); k++ {
		prev += dec[k-1]
		out[k] = prev
	}
	return used
}

// NewSIMDPforDeltaStar returns SIMDPforDelta* in the standard frame.
func NewSIMDPforDeltaStar() core.Codec { return NewBlocked(SIMDPforDeltaStarBlock()) }

// SIMDPforDeltaStarBlock exposes the bare block codec.
func SIMDPforDeltaStarBlock() BlockCodec { return simdPFDStarBlock{} }

type simdPFDStarBlock struct{}

func (simdPFDStarBlock) Name() string { return "SIMDPforDelta*" }

func (simdPFDStarBlock) EncodeBlock(dst []byte, block []uint32) []byte {
	var in [128]uint32
	gaps := blockGaps(block, &in)
	b := maxBits(gaps)
	clearTail(&in, len(gaps))
	dst = append(dst, byte(b))
	return kernels.VPack128(dst, &in, b)
}

func (simdPFDStarBlock) DecodeBlock(src []byte, out []uint32) int {
	if len(out) <= 1 {
		return 0
	}
	return 1 + vdecodeDelta(src[1:], out, uint(src[0]))
}

// vdecodeDelta fills out[1:] with the b-bit d-gaps packed in src,
// prefix-summed onto out[0] in the fused kernel's one pass, and returns
// bytes used (16*b). A full block decodes straight into out. A partial
// one decodes all 127 slots into scratch and keeps what out holds: a
// packed block is always the full 16*b bytes, so the read stays in
// bounds (a short last block that VB codes smaller is VB-coded by the
// frame and never reaches here).
func vdecodeDelta(src []byte, out []uint32, b uint) int {
	if len(out) == BlockSize {
		return kernels.VUnpackDelta(src, (*[BlockSize - 1]uint32)(out[1:]), out[0], b)
	}
	var dec [BlockSize - 1]uint32
	used := kernels.VUnpackDelta(src, &dec, out[0], b)
	copy(out[1:], dec[:])
	return used
}

// vdecodeBase is vdecodeDelta for SIMDBP128*'s offsets from the block's
// first value: out[k] = out[0] + offset[k-1], with no prefix sum.
func vdecodeBase(src []byte, out []uint32, b uint) int {
	if len(out) == BlockSize {
		return kernels.VUnpackBase(src, (*[BlockSize - 1]uint32)(out[1:]), out[0], b)
	}
	var dec [BlockSize - 1]uint32
	used := kernels.VUnpackBase(src, &dec, out[0], b)
	copy(out[1:], dec[:])
	return used
}

// maxBits returns the widest bit count needed by vals (0 for empty).
func maxBits(vals []uint32) uint {
	var b uint
	for _, v := range vals {
		if w := bitsFor(v); w > b {
			b = w
		}
	}
	return b
}

// clearTail zeroes the padding slots beyond n.
func clearTail(in *[128]uint32, n int) {
	for i := n; i < 128; i++ {
		in[i] = 0
	}
}
