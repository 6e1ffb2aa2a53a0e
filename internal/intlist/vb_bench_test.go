package intlist

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkVBTailDecode times vbBlock.DecodeBlock on a short last block
// of 8, 32, 100 and 127 values — the VB tail the padding codecs write
// instead of a packed block. Gaps are drawn below 128, so every gap is
// one byte, which is the shape a tail of a dense enough list has.
func BenchmarkVBTailDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(49))
	for _, n := range []int{8, 32, 100, 127} {
		block := make([]uint32, n)
		block[0] = uint32(rng.Intn(1 << 20))
		for i := 1; i < n; i++ {
			block[i] = block[i-1] + 1 + uint32(rng.Intn(120))
		}
		src := vbBlock{}.EncodeBlock(nil, block)
		out := make([]uint32, n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(4 * n))
			for i := 0; i < b.N; i++ {
				out[0] = block[0]
				if used := (vbBlock{}).DecodeBlock(src, out); used != len(src) {
					b.Fatalf("used %d of %d bytes", used, len(src))
				}
			}
			if out[n-1] != block[n-1] {
				b.Fatalf("last value %d, want %d", out[n-1], block[n-1])
			}
		})
	}
}
