package intlist

import (
	"math/rand"
	"testing"

	"repro/internal/kernels"
)

// simdBlockLengths are the block lengths the SIMD codecs are checked at:
// the degenerate 1-value block, the shortest partial blocks, a half
// block, the partial blocks next to full, and the full block that takes
// the fused kernels' no-scratch path.
var simdBlockLengths = []int{1, 2, 3, 64, 126, 127, 128}

// simdTestBlock returns an n-value block whose d-gaps (or, with
// offsets, whose offsets from the first value) are at most b bits wide,
// and exactly b wide in at least one slot. uint32 wrapping keeps wide
// blocks exact: the codecs only ever subtract and add.
func simdTestBlock(rng *rand.Rand, n int, b uint, offsets bool) []uint32 {
	mask := uint32(uint64(1)<<b - 1)
	block := make([]uint32, n)
	block[0] = rng.Uint32()
	for i := 1; i < n; i++ {
		v := rng.Uint32() & mask
		if i == n-1 && b > 0 {
			v |= 1 << (b - 1)
		}
		if offsets {
			block[i] = block[0] + v
		} else {
			block[i] = block[i-1] + v
		}
	}
	return block
}

// simdExceptionBlock returns an n-value block for SIMDPforDelta whose
// gaps are b bits wide except one in ten, which is wider and so becomes
// an exception. The last gap is always one, so exceptions reach
// position 126 of a full block.
func simdExceptionBlock(rng *rand.Rand, n int, b uint) []uint32 {
	gaps := n - 1
	mask := uint32(uint64(1)<<b - 1)
	block := make([]uint32, n)
	block[0] = rng.Uint32()
	for i := 1; i < n; i++ {
		g := rng.Uint32()&mask | 1<<(b-1)
		if (gaps-i)%10 == 0 && (gaps-i)/10 < gaps/10 {
			g = rng.Uint32() | 1<<b // wider than b: an exception
		}
		block[i] = block[i-1] + g
	}
	return block
}

// checkSIMDBlock encodes block, checks the block header's width byte
// (and, for SIMDPforDelta, whether it carries exceptions), decodes it
// and requires the input back exactly.
func checkSIMDBlock(t *testing.T, bc BlockCodec, block []uint32, wantB uint, wantExc bool) {
	t.Helper()
	src := bc.EncodeBlock(nil, block)
	if len(block) > 1 && uint(src[0]) != wantB {
		t.Fatalf("%s n=%d: width byte %d, want %d", bc.Name(), len(block), src[0], wantB)
	}
	if _, ok := bc.(simdPFDBlock); ok && len(block) > 1 && (src[1] > 0) != wantExc {
		t.Fatalf("%s n=%d b=%d: %d exceptions, want exceptions=%v", bc.Name(), len(block), wantB, src[1], wantExc)
	}
	out := make([]uint32, len(block))
	out[0] = block[0]
	used := bc.DecodeBlock(src, out)
	if len(block) > 1 && used != len(src) {
		t.Fatalf("%s n=%d b=%d: used %d of %d bytes", bc.Name(), len(block), wantB, used, len(src))
	}
	for i := range block {
		if out[i] != block[i] {
			t.Fatalf("%s n=%d b=%d: out[%d] = %d, want %d", bc.Name(), len(block), wantB, i, out[i], block[i])
		}
	}
}

// TestSIMDBlocksEveryWidthAndLength roundtrips the four SIMD block
// codecs at every width 0–32 and every length in simdBlockLengths, so
// both the full-block and the partial-block decode run through each
// unrolled width and through the width-25–32 reference fallback.
func TestSIMDBlocksEveryWidthAndLength(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for b := uint(0); b <= 32; b++ {
		// bitsFor never reports width 0, so all-zero gaps pack at width 1.
		wantB := max(b, 1)
		for _, n := range simdBlockLengths {
			checkSIMDBlock(t, simdBP128Block{}, simdTestBlock(rng, n, b, false), wantB, false)
			checkSIMDBlock(t, simdPFDStarBlock{}, simdTestBlock(rng, n, b, false), wantB, false)
			checkSIMDBlock(t, simdBP128StarBlock{}, simdTestBlock(rng, n, b, true), wantB, false)
			checkSIMDBlock(t, simdPFDBlock{}, simdTestBlock(rng, n, b, false), wantB, false)
			if b >= 1 && b < 32 && n >= 64 {
				checkSIMDBlock(t, simdPFDBlock{}, simdExceptionBlock(rng, n, b), b, true)
			}
		}
	}
}

// TestDecodeAllocatesNothing pins what the generated switches of direct
// calls exist for: no decode kernel, and no SIMD codec's DecodeBlock,
// moves a caller's output array or its own scratch block to the heap —
// at the unrolled widths and at the reference-loop fallback alike.
func TestDecodeAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var sink uint32
	for b := uint(0); b <= 32; b++ {
		var vals [128]uint32
		for i := range vals {
			vals[i] = rng.Uint32() & uint32(uint64(1)<<b-1)
		}
		horiz := kernels.Pack(nil, vals[:], b)
		vert := kernels.VPack128(nil, &vals, b)
		for name, decode := range map[string]func(){
			"Unpack": func() {
				var out [128]uint32
				kernels.Unpack(horiz, out[:], b)
				sink += out[127]
			},
			"VUnpack": func() {
				var out [128]uint32
				kernels.VUnpack(vert, &out, b)
				sink += out[127]
			},
			"VUnpackDelta": func() {
				var out [127]uint32
				kernels.VUnpackDelta(vert, &out, 1, b)
				sink += out[126]
			},
			"VUnpackBase": func() {
				var out [127]uint32
				kernels.VUnpackBase(vert, &out, 1, b)
				sink += out[126]
			},
		} {
			if a := testing.AllocsPerRun(10, decode); a != 0 {
				t.Errorf("kernels.%s b=%d: %v allocs per call, want 0", name, b, a)
			}
		}
		for _, bc := range []BlockCodec{simdBP128Block{}, simdBP128StarBlock{}, simdPFDBlock{}, simdPFDStarBlock{}} {
			for _, n := range simdBlockLengths {
				_, star := bc.(simdBP128StarBlock)
				block := simdTestBlock(rng, n, b, star)
				if _, ok := bc.(simdPFDBlock); ok && b >= 1 && b < 32 && n >= 64 {
					block = simdExceptionBlock(rng, n, b)
				}
				src := bc.EncodeBlock(nil, block)
				out := make([]uint32, n)
				decode := func() {
					out[0] = block[0]
					bc.DecodeBlock(src, out)
				}
				if a := testing.AllocsPerRun(10, decode); a != 0 {
					t.Errorf("%s b=%d n=%d: DecodeBlock makes %v allocs, want 0", bc.Name(), b, n, a)
				}
			}
		}
	}
	_ = sink
}
