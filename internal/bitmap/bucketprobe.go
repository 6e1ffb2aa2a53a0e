package bitmap

import (
	"sort"

	"repro/internal/core"
)

// core.BucketProber implementations for the bucketed codecs (Roaring
// and Roaring+Run). The interface exposes the 2^16-wide container
// structure so the query engine's mixed kernel can intersect a dense
// bitmap with a compressed sparse list without decompressing either
// side: bucket keys line up with the list's skip blocks, matching
// buckets are probed element-wise in whichever direction is cheaper.
// The same bucket walk ORs a posting into the dense union's word array.

var (
	_ core.BucketProber = (*roaringPosting)(nil)
	_ core.BucketProber = (*roaringRunPosting)(nil)
)

// containerContains is the one-shot membership test across all three
// container kinds (arrays binary-search, bitmaps index a word, run
// containers binary-search intervals).
func containerContains(c container, low uint16) bool {
	switch cc := c.(type) {
	case arrayContainer:
		k := sort.Search(len(cc), func(i int) bool { return cc[i] >= low })
		return k < len(cc) && cc[k] == low
	case *bitmapContainer:
		return cc.contains(low)
	case *runContainer:
		return cc.contains(low)
	}
	return false
}

func (p *roaringPosting) NumBuckets() int        { return len(p.keys) }
func (p *roaringPosting) BucketKey(i int) uint16 { return p.keys[i] }
func (p *roaringPosting) BucketLen(i int) int    { return p.cs[i].card() }
func (p *roaringPosting) BucketContains(i int, lo uint16) bool {
	return containerContains(p.cs[i], lo)
}
func (p *roaringPosting) AppendBucket(i int, dst []uint32) []uint32 {
	return p.cs[i].appendAll(dst, uint32(p.keys[i])<<16)
}

func (p *roaringRunPosting) NumBuckets() int        { return len(p.keys) }
func (p *roaringRunPosting) BucketKey(i int) uint16 { return p.keys[i] }
func (p *roaringRunPosting) BucketLen(i int) int    { return p.cs[i].card() }
func (p *roaringRunPosting) BucketContains(i int, lo uint16) bool {
	return containerContains(p.cs[i], lo)
}
func (p *roaringRunPosting) AppendBucket(i int, dst []uint32) []uint32 {
	return p.cs[i].appendAll(dst, uint32(p.keys[i])<<16)
}

// OrWordsInto implements core.BucketProber.
func (p *roaringPosting) OrWordsInto(words []uint64, base uint32) {
	orBucketsInto(p.keys, p.cs, words, base)
}

// OrWordsInto implements core.BucketProber.
func (p *roaringRunPosting) OrWordsInto(words []uint64, base uint32) {
	orBucketsInto(p.keys, p.cs, words, base)
}

// orBucketsInto ORs every container into the 1024 words its bucket
// spans in words, whose bit 0 stands for value base.
func orBucketsInto(keys []uint16, cs []container, words []uint64, base uint32) {
	for i, c := range cs {
		orContainerInto(words[(uint32(keys[i])<<16-base)>>6:], c)
	}
}
