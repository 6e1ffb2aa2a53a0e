package iosim

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/intlist"
)

// TestStoreListVBTail: a stored SIMD list whose short last block is
// VB-coded reads back exactly, and a seek into that block fetches its
// VB bytes and nothing else.
func TestStoreListVBTail(t *testing.T) {
	vals := gen.Uniform(200, 1<<16, 5)
	tail := vals[intlist.BlockSize:]
	var vb []byte
	for i := 1; i < len(tail); i++ {
		vb = intlist.PutVB(vb, tail[i]-tail[i-1])
	}
	for _, bc := range []intlist.BlockCodec{intlist.SIMDPforDeltaBlock(), intlist.SIMDPforDeltaStarBlock()} {
		d := NewDisk(80, 0.25)
		p, err := StoreList(d, intlist.Blocked{BC: bc}, vals)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(p.Decompress(), vals) {
			t.Fatalf("%s: stored round trip differs", bc.Name())
		}
		d.Reset()
		last := tail[len(tail)-1]
		if v, ok := p.(core.Seeker).Iterator().SeekGEQ(last); !ok || v != last {
			t.Fatalf("%s: SeekGEQ(%d) = %d, %v", bc.Name(), last, v, ok)
		}
		if reads, bytes, _ := d.Stats(); reads != 1 || bytes != int64(len(vb)) {
			t.Fatalf("%s: seek into the tail read %d bytes in %d fetches, want its %d VB bytes in 1",
				bc.Name(), bytes, reads, len(vb))
		}
	}
}
