package ops

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/kernels"
)

// The dense union. When the operands' summed length is a fair fraction
// of the span their values cover, a merge pays per input value for
// comparisons and branches that an uncompressed bit array does not:
// every operand ORs into one word array spanning the values, then one
// pass extracts the set bits. That costs O(Σ|L| + span/64) with no
// per-operand list materialized — Roaring bitmap containers OR in 1024
// words at a time, array containers set bits, run containers fill
// ranges, block-coded lists set bits one decoded block at a time. The
// two Roaring papers (PAPERS.md) compute many-way unions the same way.

// denseCut is c in the choice rule Σ|L| ≥ c·(hi−lo)/64: the dense
// union runs when the operands hold at least c values per 64-value
// word of the span they cover. It is measured, not tuned per call:
// BenchmarkUnionDenseVsMerge sweeps the ratio from 1/16 to 16 for 2
// and 4 equal operands and for a 1000:1 pair, list- and Roaring-coded
// (DESIGN §12 "The merges"). The crossover is near 1/4 for four equal
// operands, 2 for two and 8 for the skewed pair, whose merge is nearly
// a copy of the long list; 4 bounds the loss on either side of it.
const denseCut = 4

// denseUnion reports whether total values spanning [lo, hi] take the
// word-array union.
func denseUnion(total int, lo, hi uint32) bool {
	return total > 0 && 64*float64(total) >= denseCut*float64(hi-lo)
}

// Dense reports whether a set of total values spanning [lo, hi] is
// held as Words rather than as a sorted list: the dense union's own
// cut, so a word array is never more than 16 bits a value.
func Dense(total int, lo, hi uint32) bool { return denseUnion(total, lo, hi) }

// Words is a set of values as a bit array: bit i of W (bit i%64 of
// word i/64) stands for value Base+i. Base is a multiple of 2^16, so
// every 1024 words are one Roaring bucket. It is how a dense answer
// travels from the union to the wire without becoming a []uint32.
type Words struct {
	Base uint32
	W    []uint64
}

// Len reports the number of values in w.
func (w Words) Len() int { return kernels.PopcountWords(w.W) }

// Docs returns w's values as a sorted list.
func (w Words) Docs() []uint32 {
	return kernels.ExtractWords(make([]uint32, 0, w.Len()), w.W, w.Base)
}

// Bounds returns w's least and greatest values; ok is false when w
// holds none.
func (w Words) Bounds() (lo, hi uint32, ok bool) {
	first := slices.IndexFunc(w.W, func(x uint64) bool { return x != 0 })
	if first < 0 {
		return 0, 0, false
	}
	last := len(w.W) - 1
	for w.W[last] == 0 {
		last--
	}
	lo = w.Base + uint32(first)<<6 + uint32(bits.TrailingZeros64(w.W[first]))
	hi = w.Base + uint32(last)<<6 + uint32(63-bits.LeadingZeros64(w.W[last]))
	return lo, hi, true
}

// accumulator is the dense union's pooled state. words is zero across
// its whole capacity between uses (drain clears what it reads), so a
// warm union neither allocates nor clears an accumulator. It is pooled
// apart from Intersect's arena, which keeps up to 8 MiB of decode
// scratch: a union holding an arena would keep one more arena, and its
// scratch, alive per concurrent OR.
type accumulator struct {
	words []uint64
	block [kernels.BlockLen]uint32 // one decoded list block
	lists [][]uint32               // per-operand decodes made by bound
}

// accMaxRetainWords caps the word array a pooled accumulator keeps, so
// one huge union cannot pin it: 512 KiB, a 2^22-value span — above every
// served index here (C300 spans 4 688 words). Pooling the 2 MiB arrays of
// codec-ops' 2^24-value spans raised its rss_peak_mb by about 3 %.
const accMaxRetainWords = 1 << 16

var accPool = sync.Pool{New: func() any { return new(accumulator) }}

func getAccumulator() *accumulator { return accPool.Get().(*accumulator) }

func putAccumulator(a *accumulator) {
	if cap(a.words) > accMaxRetainWords {
		a.words = nil
	}
	clear(a.lists)
	a.lists = a.lists[:0]
	accPool.Put(a)
}

// unionFresh is UnionWords' choice: the dense path ORs into fresh
// words, which the caller owns, and the sparse path merges.
func (a *accumulator) unionFresh(postings []core.Posting) ([]uint32, *Words, error) {
	lo, hi, total := a.boundAll(postings)
	if !denseUnion(total, lo, hi) {
		if len(postings) == 1 {
			if a.lists[0] != nil {
				return a.lists[0], nil, nil
			}
			return postings[0].Decompress(), nil, nil
		}
		docs, err := unionSparse(postings, a.lists)
		return docs, nil, err
	}
	base := lo &^ 0xffff
	w := &Words{Base: base, W: make([]uint64, int((hi-base)>>6)+1)}
	for i, p := range postings {
		a.orInto(w.W, base, p, a.lists[i])
	}
	return nil, w, nil
}

// union is Union's choice and both of its paths. Each operand is
// bounded as cheaply as it allows (bound); an operand that had to be
// decoded for its bound is decoded once, and whichever path wins reuses
// that decode.
func (a *accumulator) union(postings []core.Posting) ([]uint32, error) {
	lo, hi, total := a.boundAll(postings)
	if denseUnion(total, lo, hi) {
		return a.unionWords(postings, lo, hi), nil
	}
	return unionSparse(postings, a.lists)
}

// boundAll bounds every operand, recording each one's decode (nil when
// bound made none) in a.lists, and returns the union's value range and
// summed length.
func (a *accumulator) boundAll(postings []core.Posting) (lo, hi uint32, total int) {
	lo = math.MaxUint32
	for _, p := range postings {
		d, plo, phi := a.bound(p)
		a.lists = append(a.lists, d)
		if n := p.Len(); n > 0 {
			lo, hi, total = min(lo, plo), max(hi, phi), total+n
		}
	}
	return lo, hi, total
}

// unionWords is the dense path of Union over bounded operands in
// [lo, hi].
func (a *accumulator) unionWords(postings []core.Posting, lo, hi uint32) []uint32 {
	words, base := a.span(lo, hi)
	for i, p := range postings {
		a.orInto(words, base, p, a.lists[i])
	}
	return drain(words, base)
}

// bound returns the range of p's values. Bucketed bitmaps give it from
// their first and last bucket keys and block-coded lists from their
// first block and their decoded last block, neither decoding the rest;
// any other posting is decoded whole, and bound returns that decode for
// the caller to reuse. An empty posting returns no range.
func (a *accumulator) bound(p core.Posting) (decoded []uint32, lo, hi uint32) {
	if p.Len() == 0 {
		return nil, 0, 0
	}
	switch q := p.(type) {
	case core.BucketProber:
		return nil, uint32(q.BucketKey(0)) << 16, uint32(q.BucketKey(q.NumBuckets()-1))<<16 | 0xffff
	case core.BlockDecoder:
		if q.BlockSpan() <= len(a.block) {
			last := q.DecodeBlock(q.NumBlocks()-1, a.block[:])
			return nil, q.BlockFirst(0), last[len(last)-1]
		}
	}
	d := p.Decompress()
	return d, d[0], d[len(d)-1]
}

// orInto ORs one operand into words, whose bit 0 stands for value
// base: from its decode when bound made one, else word-wise through
// core.BucketProber, else one block at a time through core.BlockDecoder.
func (a *accumulator) orInto(words []uint64, base uint32, p core.Posting, decoded []uint32) {
	if decoded != nil {
		setBits(words, base, decoded)
		return
	}
	switch q := p.(type) {
	case core.BucketProber:
		q.OrWordsInto(words, base)
	case core.BlockDecoder:
		for b := range q.NumBlocks() {
			setBits(words, base, q.DecodeBlock(b, a.block[:]))
		}
	}
}

// span returns zeroed words for values in [lo, hi], from lo's 2^16
// bucket boundary through hi, and the value their bit 0 stands for.
func (a *accumulator) span(lo, hi uint32) ([]uint64, uint32) {
	base := lo &^ 0xffff
	n := int((hi-base)>>6) + 1
	if cap(a.words) < n {
		a.words = make([]uint64, n)
	}
	return a.words[:n], base
}

// listBounds returns the value range and summed length of sorted lists.
func listBounds(lists [][]uint32) (lo, hi uint32, total int) {
	lo = math.MaxUint32
	for _, l := range lists {
		if len(l) > 0 {
			lo, hi, total = min(lo, l[0]), max(hi, l[len(l)-1]), total+len(l)
		}
	}
	return lo, hi, total
}

// unionListWords is the dense path of UnionMany over lists in [lo, hi].
func unionListWords(lists [][]uint32, lo, hi uint32) []uint32 {
	a := getAccumulator()
	words, base := a.span(lo, hi)
	for _, l := range lists {
		setBits(words, base, l)
	}
	out := drain(words, base)
	putAccumulator(a)
	return out
}

// setBits ORs the values of l into words, whose bit 0 stands for base.
func setBits(words []uint64, base uint32, l []uint32) {
	for _, v := range l {
		v -= base
		words[v>>6] |= 1 << (v & 63)
	}
}

// drain extracts the accumulator into an exactly sized, non-nil result
// and leaves the words zero.
func drain(words []uint64, base uint32) []uint32 {
	out := make([]uint32, kernels.PopcountWords(words))
	kernels.DrainWords(out, words, base)
	return out
}
