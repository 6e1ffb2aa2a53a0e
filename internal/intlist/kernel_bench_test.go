package intlist

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// Codec-level decode benchmarks for the families rewired onto
// internal/kernels. These measure end-to-end DecodeBlock throughput
// (headers, skip frame, fused kernels) rather than the bare kernels —
// the number the README's before/after table and the CI bench smoke
// track. SetBytes reports decoded-output bytes, so ns/op converts
// directly to decode throughput.
func kernelBenchCodecs() []core.Codec {
	return []core.Codec{
		NewSIMDBP128(),
		NewSIMDBP128Star(),
		NewSIMDPforDelta(),
		NewSIMDPforDeltaStar(),
		NewPforDeltaCodec(),
		NewPforDeltaStar(),
	}
}

// kernelBenchList builds a sorted list whose gap distribution exercises
// mid-range bit widths (the common case on the paper's workloads).
func kernelBenchList(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	v := uint32(0)
	for i := range out {
		v += 1 + uint32(rng.Intn(200))
		out[i] = v
	}
	return out
}

func BenchmarkDecode(b *testing.B) {
	list := kernelBenchList(1<<16, 1)
	for _, c := range kernelBenchCodecs() {
		p, err := c.Compress(list)
		if err != nil {
			b.Fatalf("%s: %v", c.Name(), err)
		}
		want := p.Len()
		buf := make([]uint32, 0, want)
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(4 * want))
			for i := 0; i < b.N; i++ {
				buf = p.DecompressAppend(buf[:0])
			}
			if len(buf) != want {
				b.Fatalf("decoded %d of %d", len(buf), want)
			}
		})
	}
}
