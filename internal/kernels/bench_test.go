package kernels

import (
	"fmt"
	"math/rand"
	"testing"
)

// Microbenchmarks per width, specialized vs reference, reported as
// decoded MB/s (SetBytes counts the 512 output bytes of one 128-value
// block). A developer tool: nothing it prints is committed.

func benchInputs(b uint) (horiz, vert []byte) {
	rng := rand.New(rand.NewSource(int64(b) + 100))
	mask := uint32(uint64(1)<<b - 1)
	var vals [128]uint32
	for i := range vals {
		vals[i] = rng.Uint32() & mask
	}
	return Pack(nil, vals[:], b), VPack128(nil, &vals, b)
}

func eachWidth(b *testing.B, run func(b *testing.B, width uint)) {
	for w := uint(0); w <= 32; w++ {
		b.Run(fmt.Sprintf("b=%d", w), func(b *testing.B) {
			b.SetBytes(128 * 4)
			run(b, w)
		})
	}
}

func BenchmarkUnpack(b *testing.B) {
	eachWidth(b, func(b *testing.B, w uint) {
		src, _ := benchInputs(w)
		var out [128]uint32
		for i := 0; i < b.N; i++ {
			Unpack(src, out[:], w)
		}
	})
}

func BenchmarkUnpackRef(b *testing.B) {
	eachWidth(b, func(b *testing.B, w uint) {
		src, _ := benchInputs(w)
		var out [128]uint32
		for i := 0; i < b.N; i++ {
			UnpackRef(src, out[:], w)
		}
	})
}

func BenchmarkVUnpack(b *testing.B) {
	eachWidth(b, func(b *testing.B, w uint) {
		_, src := benchInputs(w)
		var out [128]uint32
		for i := 0; i < b.N; i++ {
			VUnpack(src, &out, w)
		}
	})
}

func BenchmarkVUnpackRef(b *testing.B) {
	eachWidth(b, func(b *testing.B, w uint) {
		_, src := benchInputs(w)
		var out [128]uint32
		for i := 0; i < b.N; i++ {
			VUnpackRef(src, &out, w)
		}
	})
}

func BenchmarkVUnpackDelta(b *testing.B) {
	eachWidth(b, func(b *testing.B, w uint) {
		_, src := benchInputs(w)
		var out [127]uint32
		for i := 0; i < b.N; i++ {
			VUnpackDelta(src, &out, 1, w)
		}
	})
}

// BenchmarkVUnpackDeltaRef is the pre-kernel SIMDBP128 decode shape:
// generic vertical unpack into a scratch block, then a prefix-sum scan.
func BenchmarkVUnpackDeltaRef(b *testing.B) {
	eachWidth(b, func(b *testing.B, w uint) {
		_, src := benchInputs(w)
		var out [127]uint32
		for i := 0; i < b.N; i++ {
			var tmp [128]uint32
			VUnpackRef(src, &tmp, w)
			prev := uint32(1)
			for k := range out {
				prev += tmp[k]
				out[k] = prev
			}
		}
	})
}

func BenchmarkVUnpackBase(b *testing.B) {
	eachWidth(b, func(b *testing.B, w uint) {
		_, src := benchInputs(w)
		var out [127]uint32
		for i := 0; i < b.N; i++ {
			VUnpackBase(src, &out, 1, w)
		}
	})
}

// BenchmarkVUnpackFusedVsLoop asks whether the fused kernels earn their
// generated code: VUnpackDelta and VUnpackBase against unpack-then-loop,
// VUnpack into a [128]uint32 scratch block followed by the prefix-sum or
// base-add loop over its first 127 values. The SIMD codecs run the fused
// kernels for full and partial blocks alike (intlist/simd.go), so every
// unrolled width (0–24) must beat the loop; widths 25–32 run the
// reference-loop fallback on both sides.
func BenchmarkVUnpackFusedVsLoop(b *testing.B) {
	for w := uint(0); w <= 32; w++ {
		_, src := benchInputs(w)
		for _, c := range []struct {
			name string
			run  func(out *[127]uint32)
		}{
			{"delta/fused", func(out *[127]uint32) { VUnpackDelta(src, out, 1, w) }},
			{"delta/loop", func(out *[127]uint32) {
				var dec [128]uint32
				VUnpack(src, &dec, w)
				prev := uint32(1)
				for k := range out {
					prev += dec[k]
					out[k] = prev
				}
			}},
			{"base/fused", func(out *[127]uint32) { VUnpackBase(src, out, 1, w) }},
			{"base/loop", func(out *[127]uint32) {
				var dec [128]uint32
				VUnpack(src, &dec, w)
				for k := range out {
					out[k] = 1 + dec[k]
				}
			}},
		} {
			b.Run(fmt.Sprintf("%s/b=%d", c.name, w), func(b *testing.B) {
				b.SetBytes(128 * 4)
				var out [127]uint32
				for i := 0; i < b.N; i++ {
					c.run(&out)
				}
			})
		}
	}
}

func BenchmarkBitops(b *testing.B) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(7))
	a := make([]uint64, n)
	c := make([]uint64, n)
	dst := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64()
		c[i] = rng.Uint64() & rng.Uint64() // sparser operand
	}
	b.Run("AndWords", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			AndWords(dst, a, c)
		}
	})
	b.Run("OrWords", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			OrWords(dst, a, c)
		}
	})
	b.Run("AndNotWords", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			AndNotWords(dst, a, c)
		}
	})
	b.Run("PopcountWords", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			PopcountWords(a)
		}
	})
	out := make([]uint32, 0, 64*n)
	b.Run("ExtractWords", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out = ExtractWords(out[:0], c, 0)
		}
	})
	b.Run("AndWordsExtract", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			out = AndWordsExtract(out[:0], a, c, 0)
		}
	})
}
