package ops

import (
	"fmt"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/kernels"
)

// unionCase is one input of TestUnionDenseMatchesMerge: k value lists
// and the side of the cut they must land on.
type unionCase struct {
	name  string
	lists [][]uint32
	dense bool
	top   bool // reaches 2^32−1 (Roaring bucket 0xffff)
}

// shift adds off to every value of a fresh copy of l.
func shift(l []uint32, off uint32) []uint32 {
	out := make([]uint32, len(l))
	for i, v := range l {
		out[i] = v + off
	}
	return out
}

// containerMix spans three 2^16 buckets so Roaring+Run stores one of
// each container kind: runs in the first, a bitmap (more than 4096
// scattered values) in the second, an array in the third.
func containerMix(seed int64) []uint32 {
	var l []uint32
	for start := uint32(seed % 7); start < 60000; start += 5000 {
		for v := start; v < start+1000; v++ {
			l = append(l, v)
		}
	}
	l = append(l, shift(gen.Uniform(6000, 1<<16, seed), 1<<16)...)
	return append(l, shift(gen.Uniform(100, 1<<16, seed+1), 2<<16)...)
}

// unionCases builds the cases for k operands.
func unionCases(k int) []unionCase {
	build := func(f func(i int) []uint32) [][]uint32 {
		lists := make([][]uint32, k)
		for i := range lists {
			lists[i] = f(i)
		}
		return lists
	}
	withZero := func(l []uint32) []uint32 {
		if l[0] != 0 {
			l = append([]uint32{0}, l...)
		}
		return l
	}
	withTop := func(l []uint32) []uint32 {
		if l[len(l)-1] != 1<<32-1 {
			l = append(l, 1<<32-1)
		}
		return l
	}
	cases := []unionCase{
		{name: "dense", dense: true, lists: build(func(i int) []uint32 { return gen.Uniform(3000, 1<<16, int64(10+i)) })},
		{name: "sparse", lists: build(func(i int) []uint32 { return gen.Uniform(200, 1<<22, int64(20+i)) })},
		{name: "zero", dense: true, lists: build(func(i int) []uint32 { return withZero(gen.Uniform(2500, 1<<16, int64(30+i))) })},
		{name: "top", dense: true, top: true, lists: build(func(i int) []uint32 {
			return withTop(shift(gen.Uniform(2500, 1<<16, int64(40+i)), 1<<32-1<<16))
		})},
		{name: "window", dense: true, lists: build(func(i int) []uint32 {
			return shift(gen.Uniform(6000, 1<<17, int64(50+i)), 5<<16+1000)
		})},
		{name: "containers", dense: true, lists: build(func(i int) []uint32 { return containerMix(int64(60 + i)) })},
	}
	if k >= 3 {
		// An empty operand and a repeated one, on both sides of the cut.
		for _, at := range []int{0, 1} {
			lists := append([][]uint32(nil), cases[at].lists...)
			lists[1] = nil
			lists[2] = lists[0]
			cases = append(cases, unionCase{name: cases[at].name + "-empty-repeat", dense: cases[at].dense, lists: lists})
		}
	}
	return cases
}

// TestUnionDenseMatchesMerge: Union and UnionMany equal the pairwise
// merge fold on every codec, for operand counts on both sides of
// heapWidth and inputs on both sides of the cut — docids 0 and 2^32−1,
// empty and repeated operands, Roaring+Run's three container kinds, a
// window far from 0 — and the dense path leaves the pooled accumulator
// clear.
func TestUnionDenseMatchesMerge(t *testing.T) {
	all := append(codecs.All(), codecs.Extensions()...)
	for _, k := range []int{1, 2, 3, 8, 9} {
		for _, c := range unionCases(k) {
			want := refUnionMany(c.lists)
			if lo, hi, total := listBounds(c.lists); k > 1 && denseUnion(total, lo, hi) != c.dense {
				t.Fatalf("k=%d %s: lands on the wrong side of the cut", k, c.name)
			}
			if got := UnionMany(append([][]uint32(nil), c.lists...)); !equalU32(got, want) || got == nil {
				t.Fatalf("k=%d %s: UnionMany differs from the merge fold (%d vs %d values)", k, c.name, len(got), len(want))
			}
			for _, codec := range all {
				if c.top && codec.Name() == "Bitset" {
					continue // sized by the largest value: 512 MiB at 2^32−1
				}
				ps := compressAll(t, codec, c.lists)
				if rs, ok := ps[0].(interface{ RunStats() (int, int, int) }); ok && c.name == "containers" {
					if runs, arrays, bitmaps := rs.RunStats(); runs == 0 || arrays == 0 || bitmaps == 0 {
						t.Fatalf("containers: %d run, %d array, %d bitmap containers", runs, arrays, bitmaps)
					}
				}
				got, err := Union(ps)
				if err != nil {
					t.Fatalf("k=%d %s %s: %v", k, c.name, codec.Name(), err)
				}
				if !equalU32(normalizeQ(got), want) {
					t.Fatalf("k=%d %s %s: Union differs from the merge fold (%d vs %d values)", k, c.name, codec.Name(), len(got), len(want))
				}
				if k == 1 {
					continue
				}
				a := getAccumulator()
				if _, err := a.union(ps); err != nil {
					t.Fatal(err)
				}
				if n := kernels.PopcountWords(a.words[:cap(a.words)]); n != 0 {
					t.Fatalf("k=%d %s %s: the accumulator kept %d bits", k, c.name, codec.Name(), n)
				}
				putAccumulator(a)
			}
		}
	}
}

// TestUnionWordsMatchesUnion: UnionWords, drained, is Union, for every
// pairing of codecs (operands alternating between the two) over the
// dense-union corpus, on both sides of the cut. Its words start at a
// 2^16 bucket boundary, come back for every Roaring union dense over
// its buckets, and
// are the caller's: Union's pooled accumulator stays clear.
func TestUnionWordsMatchesUnion(t *testing.T) {
	all := append(codecs.All(), codecs.Extensions()...)
	for _, k := range []int{1, 2, 3} {
		for _, c := range unionCases(k) {
			want := refUnionMany(c.lists)
			compressed := make([][]core.Posting, len(all))
			for i, codec := range all {
				if !(c.top && codec.Name() == "Bitset") { // 512 MiB at 2^32−1
					compressed[i] = compressAll(t, codec, c.lists)
				}
			}
			for i := range all {
				for j := range all {
					if compressed[i] == nil || compressed[j] == nil || (k == 1 && j > 0) {
						continue
					}
					ps := make([]core.Posting, k)
					for op := range ps {
						ps[op] = [][]core.Posting{compressed[i], compressed[j]}[op%2][op]
					}
					docs, w, err := UnionWords(ps)
					if err != nil {
						t.Fatalf("k=%d %s %s+%s: %v", k, c.name, all[i].Name(), all[j].Name(), err)
					}
					got := docs
					if w != nil {
						if docs != nil || w.Base&0xffff != 0 {
							t.Fatalf("k=%d %s %s+%s: words at %#x beside %d docids", k, c.name, all[i].Name(), all[j].Name(), w.Base, len(docs))
						}
						got = w.Docs()
					}
					if !equalU32(normalizeQ(got), want) {
						t.Fatalf("k=%d %s %s+%s: UnionWords differs from Union (%d vs %d values)", k, c.name, all[i].Name(), all[j].Name(), len(got), len(want))
					}
					// Roaring bounds its operands by whole buckets.
					lo, hi, total := listBounds(c.lists)
					if roaring := all[i].Name() == "Roaring" && all[j].Name() == "Roaring"; roaring && (w != nil) != denseUnion(total, lo&^0xffff, hi|0xffff) {
						t.Fatalf("k=%d %s: Roaring words %v, dense over its buckets %v", k, c.name, w != nil, !(w != nil))
					}
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

// TestUnionDenseMixedFamilies: Roaring, Roaring+Run and SIMDBP128*
// operands OR into one accumulator together; a run-length bitmap or
// PEF among them is decoded for its bound and set bit by bit.
func TestUnionDenseMixedFamilies(t *testing.T) {
	names := []string{"Roaring", "SIMDBP128*", "Roaring+Run", "SIMDBP128*", "WAH", "PEF", "Roaring"}
	for _, k := range []int{2, 3, 8, 9} {
		for _, c := range unionCases(k) {
			ps := make([]core.Posting, k)
			for i, l := range c.lists {
				codec, err := codecs.ByName(names[i%len(names)])
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = compressAll(t, codec, [][]uint32{l})[0]
			}
			got, err := Union(ps)
			if err != nil {
				t.Fatal(err)
			}
			if want := refUnionMany(c.lists); !equalU32(normalizeQ(got), want) {
				t.Fatalf("k=%d %s: mixed Union differs from the merge fold (%d vs %d values)", k, c.name, len(got), len(want))
			}
		}
	}
}

// BenchmarkUnionDenseVsMerge measures the crossover behind denseCut.
// It sweeps the ratio Σ|L| / ((hi−lo)/64) from 1/16 to 16 over a 2^20
// span, for 2 and 4 equal uniform operands and for Table 2's skewed
// pair (|L2|/|L1| = 1000), coded as SIMDBP128* lists, Roaring bitmaps,
// or plain decoded lists (UnionMany's input), and times the word-array
// union against the merge it replaces: the native pair then
// decompress-and-merge for postings, unionMerge for plain lists.
func BenchmarkUnionDenseVsMerge(b *testing.B) {
	const span = 1 << 20
	shapes := []struct {
		name   string
		shares []float64 // each operand's share of Σ|L|
	}{
		{"k=2", []float64{0.5, 0.5}},
		{"k=4", []float64{0.25, 0.25, 0.25, 0.25}},
		{"skew=1000", []float64{1000.0 / 1001, 1.0 / 1001}},
	}
	for _, coding := range []string{"SIMDBP128*", "Roaring", "plain"} {
		for _, shape := range shapes {
			k := len(shape.shares)
			for _, ratio := range []float64{1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 4, 8, 16} {
				lists := make([][]uint32, k)
				for i, share := range shape.shares {
					lists[i] = gen.Uniform(max(1, int(share*ratio*span/64)), span, int64(900+i))
				}
				name := fmt.Sprintf("%s/%s/ratio=%g", coding, shape.name, ratio)
				if coding == "plain" {
					lo, hi, _ := listBounds(lists)
					b.Run(name+"/dense", func(b *testing.B) {
						for i := 0; i < b.N; i++ {
							benchSink = unionListWords(lists, lo, hi)
						}
					})
					b.Run(name+"/merge", func(b *testing.B) {
						scratch := make([][]uint32, k)
						for i := 0; i < b.N; i++ {
							copy(scratch, lists)
							benchSink = unionMerge(scratch)
						}
					})
					continue
				}
				c, err := codecs.ByName(coding)
				if err != nil {
					b.Fatal(err)
				}
				ps := make([]core.Posting, k)
				for i, l := range lists {
					if ps[i], err = c.Compress(l); err != nil {
						b.Fatal(err)
					}
				}
				b.Run(name+"/dense", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						benchSink = unionWordsPostings(ps)
					}
				})
				b.Run(name+"/merge", func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						if benchSink, err = unionSparse(ps, nil); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// unionWordsPostings is Union's dense path, whatever the ratio.
func unionWordsPostings(ps []core.Posting) []uint32 {
	a := getAccumulator()
	lo, hi, _ := a.boundAll(ps)
	out := a.unionWords(ps, lo, hi)
	putAccumulator(a)
	return out
}
