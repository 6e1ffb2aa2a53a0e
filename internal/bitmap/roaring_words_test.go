package bitmap

import (
	"bytes"
	"encoding"
	"math/rand"
	"testing"

	"repro/internal/kernels"
)

// TestPostingWordsMatchesCompress: MarshalRoaringWords writes, byte for
// byte, what Roaring{}.Compress of the drained values marshals to, for
// every bucket shape — empty (also between two full ones), exactly 4096
// values (an array) and 4097 (a bitmap), a full bucket, a partial last
// bucket, a single value — at bases from 0 to the last bucket, whose
// values reach 2^32−1, and for random fills.
func TestPostingWordsMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// fill sets n distinct random values of bucket b in words, or as
	// many as half the bucket's part of words holds.
	fill := func(words []uint64, b, n int) {
		n = min(n, 64*(len(words)-b*1024)/2)
		for set := 0; set < n; {
			v := b<<16 | rng.Intn(1<<16)
			if v>>6 >= len(words) {
				continue
			}
			if words[v>>6]&(1<<(v&63)) == 0 {
				words[v>>6] |= 1 << (v & 63)
				set++
			}
		}
	}
	type shape struct {
		name  string
		words func() []uint64
	}
	shapes := []shape{
		{"none", func() []uint64 { return make([]uint64, 1024) }},
		{"one", func() []uint64 { w := make([]uint64, 1); w[0] = 1 << 63; return w }},
		{"4096", func() []uint64 { w := make([]uint64, 1024); fill(w, 0, 4096); return w }},
		{"4097", func() []uint64 { w := make([]uint64, 1024); fill(w, 0, 4097); return w }},
		{"full", func() []uint64 {
			w := make([]uint64, 1024)
			for i := range w {
				w[i] = ^uint64(0)
			}
			return w
		}},
		{"empty-middle", func() []uint64 { w := make([]uint64, 3*1024); fill(w, 0, 9000); fill(w, 2, 20); return w }},
		{"partial-last", func() []uint64 { w := make([]uint64, 2*1024+300); fill(w, 0, 5000); fill(w, 2, 4500); return w }},
		{"partial-last-array", func() []uint64 { w := make([]uint64, 1024+17); fill(w, 0, 100); fill(w, 1, 30); return w }},
	}
	for i := 0; i < 20; i++ {
		shapes = append(shapes, shape{"random", func() []uint64 {
			w := make([]uint64, 1+rng.Intn(6*1024))
			for b := 0; b <= (len(w)-1)/1024; b++ {
				fill(w, b, []int{0, 1, 4096, 4097, rng.Intn(9000)}[rng.Intn(5)])
			}
			return w
		}})
	}
	for _, sh := range shapes {
		for _, key := range []uint32{0, 1, 0x7fff, 0xfffa} {
			words := sh.words()
			if int(key)+(len(words)+1023)/1024 > 1<<16 {
				continue
			}
			base := key << 16
			values := kernels.ExtractWords(nil, words, base)
			p, err := Roaring{}.Compress(values)
			if err != nil {
				t.Fatal(err)
			}
			want, err := p.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if got := MarshalRoaringWords(words, base); !bytes.Equal(got, want) {
				t.Fatalf("%s at bucket %#x (%d values): %d bytes, Compress marshals %d", sh.name, key, len(values), len(got), len(want))
			}
		}
	}
	// The last bucket, through 2^32−1.
	words := make([]uint64, 1024)
	fill(words, 0, 6000)
	words[1023] |= 1 << 63
	values := kernels.ExtractWords(nil, words, 0xffff0000)
	if values[len(values)-1] != 1<<32-1 {
		t.Fatal("the top bucket does not reach 2^32-1")
	}
	p, _ := Roaring{}.Compress(values)
	want, _ := p.(encoding.BinaryMarshaler).MarshalBinary()
	if got := MarshalRoaringWords(words, 0xffff0000); !bytes.Equal(got, want) {
		t.Fatal("the top bucket marshals differently from Compress")
	}
}
