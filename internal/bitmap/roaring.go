package bitmap

import (
	"sort"

	"repro/internal/core"
	"repro/internal/kernels"
)

// Roaring (§2.7) partitions the domain into 2^16-value buckets sharing
// the same high 16 bits. A bucket with more than Threshold elements
// (4096 by default) is stored as a 65536-bit uncompressed bitmap;
// otherwise as a sorted array of 16-bit low parts. At the default
// threshold no element ever costs more than 16 bits — 4096 is exactly
// the break-even point between 2-byte array entries and the 8 KiB
// bitmap container, which the threshold ablation benchmark
// demonstrates. Intersection and union work bucket-at-a-time with four
// cases (bitmap/bitmap, bitmap/array, array/bitmap, array/array),
// skipping buckets whose keys do not match.
type Roaring struct {
	// Threshold overrides the array/bitmap container switch point;
	// 0 means the paper's 4096.
	Threshold int
}

// NewRoaring returns the Roaring codec with the paper's 4096 threshold.
func NewRoaring() core.Codec { return Roaring{} }

// NewRoaringThreshold returns Roaring with a custom container
// threshold (for the ablation study).
func NewRoaringThreshold(t int) core.Codec { return Roaring{Threshold: t} }

func (Roaring) Name() string    { return "Roaring" }
func (Roaring) Kind() core.Kind { return core.KindBitmap }

// roaringArrayMax is the paper's array-container cardinality threshold.
const roaringArrayMax = 4096

// Compress buckets values by their high 16 bits and stores each bucket
// as an array or bitmap container per the threshold.
func (r Roaring) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	threshold := r.Threshold
	if threshold <= 0 {
		threshold = roaringArrayMax
	}
	p := &roaringPosting{n: len(values)}
	i := 0
	for i < len(values) {
		key := uint16(values[i] >> 16)
		j := i
		for j < len(values) && uint16(values[j]>>16) == key {
			j++
		}
		bucket := values[i:j]
		p.keys = append(p.keys, key)
		if len(bucket) > threshold {
			c := &bitmapContainer{n: len(bucket)}
			for _, v := range bucket {
				low := v & 0xffff
				c.words[low>>6] |= 1 << (low & 63)
			}
			p.cs = append(p.cs, c)
		} else {
			c := make(arrayContainer, len(bucket))
			for k, v := range bucket {
				c[k] = uint16(v)
			}
			p.cs = append(p.cs, c)
		}
		i = j
	}
	return p, nil
}

type roaringPosting struct {
	keys []uint16
	cs   []container
	n    int
}

type container interface {
	card() int
	sizeBytes() int
	appendAll(out []uint32, high uint32) []uint32
}

type arrayContainer []uint16

func (c arrayContainer) card() int      { return len(c) }
func (c arrayContainer) sizeBytes() int { return len(c) * 2 }
func (c arrayContainer) appendAll(out []uint32, high uint32) []uint32 {
	for _, v := range c {
		out = append(out, high|uint32(v))
	}
	return out
}

type bitmapContainer struct {
	words [1024]uint64
	n     int
}

func (c *bitmapContainer) card() int      { return c.n }
func (c *bitmapContainer) sizeBytes() int { return 8192 }
func (c *bitmapContainer) appendAll(out []uint32, high uint32) []uint32 {
	return kernels.ExtractWords(out, c.words[:], high)
}

func (c *bitmapContainer) contains(low uint16) bool {
	return c.words[low>>6]&(1<<(low&63)) != 0
}

func (p *roaringPosting) Len() int { return p.n }

// SizeBytes counts container payloads plus 4 bytes of per-container
// metadata (16-bit key and cardinality).
func (p *roaringPosting) SizeBytes() int {
	s := 4 * len(p.cs)
	for _, c := range p.cs {
		s += c.sizeBytes()
	}
	return s
}

func (p *roaringPosting) Decompress() []uint32 {
	return p.DecompressAppend(make([]uint32, 0, p.n))
}

// DecompressAppend implements core.Posting.
func (p *roaringPosting) DecompressAppend(dst []uint32) []uint32 {
	for i, c := range p.cs {
		dst = c.appendAll(dst, uint32(p.keys[i])<<16)
	}
	return dst
}

// IntersectWith merges bucket keys and intersects matching containers.
func (p *roaringPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*roaringPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	var out []uint32
	i, j := 0, 0
	for i < len(p.keys) && j < len(q.keys) {
		switch {
		case p.keys[i] < q.keys[j]:
			i++
		case p.keys[i] > q.keys[j]:
			j++
		default:
			out = andContainers(p.cs[i], q.cs[j], out, uint32(p.keys[i])<<16)
			i++
			j++
		}
	}
	return out, nil
}

// UnionWith merges bucket keys and unions matching containers.
func (p *roaringPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*roaringPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	out := make([]uint32, 0, p.n+q.n)
	i, j := 0, 0
	for i < len(p.keys) || j < len(q.keys) {
		switch {
		case j >= len(q.keys) || (i < len(p.keys) && p.keys[i] < q.keys[j]):
			out = p.cs[i].appendAll(out, uint32(p.keys[i])<<16)
			i++
		case i >= len(p.keys) || p.keys[i] > q.keys[j]:
			out = q.cs[j].appendAll(out, uint32(q.keys[j])<<16)
			j++
		default:
			out = orContainers(p.cs[i], q.cs[j], out, uint32(p.keys[i])<<16)
			i++
			j++
		}
	}
	return out, nil
}

func andContainers(a, b container, out []uint32, high uint32) []uint32 {
	switch ca := a.(type) {
	case arrayContainer:
		switch cb := b.(type) {
		case arrayContainer:
			return andArrayArray(ca, cb, out, high)
		case *bitmapContainer:
			return andArrayBitmap(ca, cb, out, high)
		}
	case *bitmapContainer:
		switch cb := b.(type) {
		case arrayContainer:
			return andArrayBitmap(cb, ca, out, high)
		case *bitmapContainer:
			return kernels.AndWordsExtract(out, ca.words[:], cb.words[:], high)
		}
	}
	return out
}

// andArrayArray intersects two sorted uint16 arrays: merge when sizes
// are comparable, per-element binary search (the paper's "in-bucket
// binary search") when they differ greatly.
func andArrayArray(a, b arrayContainer, out []uint32, high uint32) []uint32 {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) > 32*len(a) {
		lo := 0
		for _, v := range a {
			k := lo + sort.Search(len(b)-lo, func(i int) bool { return b[lo+i] >= v })
			if k < len(b) && b[k] == v {
				out = append(out, high|uint32(v))
			}
			lo = k
		}
		return out
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, high|uint32(a[i]))
			i++
			j++
		}
	}
	return out
}

func andArrayBitmap(a arrayContainer, b *bitmapContainer, out []uint32, high uint32) []uint32 {
	for _, v := range a {
		if b.contains(v) {
			out = append(out, high|uint32(v))
		}
	}
	return out
}

func orContainers(a, b container, out []uint32, high uint32) []uint32 {
	switch ca := a.(type) {
	case arrayContainer:
		switch cb := b.(type) {
		case arrayContainer:
			i, j := 0, 0
			for i < len(ca) || j < len(cb) {
				switch {
				case j >= len(cb) || (i < len(ca) && ca[i] < cb[j]):
					out = append(out, high|uint32(ca[i]))
					i++
				case i >= len(ca) || ca[i] > cb[j]:
					out = append(out, high|uint32(cb[j]))
					j++
				default:
					out = append(out, high|uint32(ca[i]))
					i++
					j++
				}
			}
			return out
		case *bitmapContainer:
			return orArrayBitmap(ca, cb, out, high)
		}
	case *bitmapContainer:
		switch cb := b.(type) {
		case arrayContainer:
			return orArrayBitmap(cb, ca, out, high)
		case *bitmapContainer:
			return kernels.OrWordsExtract(out, ca.words[:], cb.words[:], high)
		}
	}
	return out
}

func orArrayBitmap(a arrayContainer, b *bitmapContainer, out []uint32, high uint32) []uint32 {
	var merged bitmapContainer
	merged.words = b.words
	for _, v := range a {
		merged.words[v>>6] |= 1 << (v & 63)
	}
	return merged.appendAll(out, high)
}
