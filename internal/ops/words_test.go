package ops

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/kernels"
)

// refOrRun is OrRun bit by bit.
func refOrRun(dst []uint64, w Words, to, from, n uint32) {
	for i := uint64(0); i < uint64(n); i++ {
		v := uint64(from) + i
		if v < uint64(w.Base) || v-uint64(w.Base) >= uint64(len(w.W))<<6 {
			continue
		}
		b := v - uint64(w.Base)
		if w.W[b>>6]&(1<<(b&63)) != 0 {
			d := uint64(to) + i
			dst[d>>6] |= 1 << (d & 63)
		}
	}
}

func randomWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		w[i] = rng.Uint64()
	}
	return w
}

// TestWordsOrRunMatchesBits: OrRun is the bit-by-bit copy at every
// source and destination bit offset, for runs of 1 to 200 values, with
// both arrays just long enough that the run ends on their last word, so
// a read or write past it panics; bits outside the run stay as they
// were on both sides. Runs that start below the source's Base, end past
// its last value, or miss it altogether copy only the values it holds.
func TestWordsOrRunMatchesBits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const base = 3 << 16
	got, want := make([]uint64, 5), make([]uint64, 5)
	for s := uint32(0); s < 64; s++ {
		for d := uint32(0); d < 64; d++ {
			for n := uint32(1); n <= 200; n++ {
				w := Words{Base: base, W: randomWords(rng, int(s+n+63)/64)}
				nd := int(d+n+63) / 64
				fill := randomWords(rng, nd)
				copy(got, fill)
				copy(want, fill)
				w.OrRun(got[:nd], d, base+s, n)
				refOrRun(want[:nd], w, d, base+s, n)
				if !slices.Equal(got[:nd], want[:nd]) {
					t.Fatalf("source offset %d, destination offset %d, %d values: %x, want %x", s, d, n, got[:nd], want[:nd])
				}
			}
		}
	}

	w := Words{Base: base, W: randomWords(rng, 3)}
	end := uint32(base + 3*64)
	for _, run := range []struct{ from, n uint32 }{
		{base - 1, 2}, {base - 63, 100}, {base - 64, 64}, {base - 70, 200}, {base - 200, 400}, // across Base
		{end - 5, 100}, {end - 64, 64}, {base - 10, 3*64 + 20}, // past the last value
		{base - 100, 50}, {end, 30}, {end + 7, 1}, // outside the words
	} {
		for _, to := range []uint32{0, 1, 37, 63, 64, 101} {
			got := randomWords(rng, int(to+run.n+63)/64)
			want := slices.Clone(got)
			w.OrRun(got, to, run.from, run.n)
			refOrRun(want, w, to, run.from, run.n)
			if !slices.Equal(got, want) {
				t.Fatalf("run [%d, +%d) of words at %d to bit %d: %x, want %x", run.from, run.n, uint32(base), to, got, want)
			}
		}
	}
	// The top of the value space.
	top := Words{Base: 0xffff0000, W: randomWords(rng, 1024)}
	got = make([]uint64, 3)
	want = make([]uint64, 3)
	top.OrRun(got, 3, 0xffffff80, 128)
	refOrRun(want, top, 3, 0xffffff80, 128)
	if !slices.Equal(got, want) {
		t.Fatalf("top of the value space: %x, want %x", got, want)
	}
}

// TestVisitUnionWordsMatchesUnionWords: VisitUnionWords hands visit
// UnionWords' answer, words on the same side of the cut and at the same
// Base, and leaves the pooled accumulator clear, also after visit
// cleared some of its bits.
func TestVisitUnionWordsMatchesUnionWords(t *testing.T) {
	all := append(codecs.All(), codecs.Extensions()...)
	for _, k := range []int{0, 1, 2, 3} {
		for _, c := range unionCases(max(k, 1)) {
			if c.top {
				continue
			}
			for _, codec := range all {
				ps := compressAll(t, codec, c.lists)[:k]
				wantDocs, wantWords, err := UnionWords(ps)
				if err != nil {
					t.Fatal(err)
				}
				visits := 0
				err = VisitUnionWords(ps, func(docs []uint32, w *Words) {
					visits++
					if (w != nil) != (wantWords != nil) || (w != nil && (docs != nil || w.Base != wantWords.Base || !slices.Equal(w.W, wantWords.W))) {
						t.Fatalf("k=%d %s %s: words %v beside %d docids, want words %v", k, c.name, codec.Name(), w != nil, len(docs), wantWords != nil)
					}
					if !slices.Equal(docs, wantDocs) {
						t.Fatalf("k=%d %s %s: %d docids, want %d", k, c.name, codec.Name(), len(docs), len(wantDocs))
					}
					if w != nil {
						for i := range w.W {
							w.W[i] &= 0x5555555555555555
						}
					}
				})
				if err != nil || visits != 1 {
					t.Fatalf("k=%d %s %s: %d visits, %v", k, c.name, codec.Name(), visits, err)
				}
			}
		}
	}
	a := getAccumulator()
	if n := kernels.PopcountWords(a.words[:cap(a.words)]); n != 0 {
		t.Fatalf("the accumulator kept %d bits", n)
	}
	putAccumulator(a)
}

// TestIntersectOneIsFresh: Intersect over one posting is its
// Decompress, and that is a fresh slice for every codec, so a caller
// may write into the answer (the live AND maps it to global ids in
// place) without touching the posting or a later answer.
func TestIntersectOneIsFresh(t *testing.T) {
	values := []uint32{0, 1, 2, 3, 63, 64, 65, 1000, 4095, 4096, 70000, 70001, 1 << 20}
	for _, codec := range append(codecs.All(), codecs.Extensions()...) {
		p, err := codec.Compress(values)
		if err != nil {
			t.Fatal(err)
		}
		first, err := Intersect([]core.Posting{p})
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			first[i] = 7
		}
		second, err := Intersect([]core.Posting{p})
		if err != nil || !slices.Equal(second, values) {
			t.Fatalf("%s: a second Intersect after writing into the first gave %v (%v), want %v", codec.Name(), second, err, values)
		}
		if again := p.Decompress(); !slices.Equal(again, values) || &again[0] == &second[0] {
			t.Fatalf("%s: Decompress shares its answer or lost values: %v", codec.Name(), again)
		}
	}
}
