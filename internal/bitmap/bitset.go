package bitmap

import (
	"repro/internal/core"
	"repro/internal/kernels"
)

// Bitset is the uncompressed bitmap baseline ("Bitset" in the paper's
// legends). Its size and performance depend on the maximum element in
// the list, regardless of the list length (§5.1 observation 5).
type Bitset struct{}

// NewBitset returns the uncompressed-bitmap codec.
func NewBitset() core.Codec { return Bitset{} }

func (Bitset) Name() string    { return "Bitset" }
func (Bitset) Kind() core.Kind { return core.KindBitmap }

// Compress materializes a plain bit vector sized to the maximum value.
func (Bitset) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &bitsetPosting{n: len(values)}
	if len(values) == 0 {
		return p, nil
	}
	maxV := values[len(values)-1]
	p.words = make([]uint64, uint64(maxV)/64+1)
	for _, v := range values {
		p.words[v>>6] |= 1 << (v & 63)
	}
	return p, nil
}

type bitsetPosting struct {
	words []uint64
	n     int
}

func (p *bitsetPosting) Len() int       { return p.n }
func (p *bitsetPosting) SizeBytes() int { return len(p.words) * 8 }

func (p *bitsetPosting) Decompress() []uint32 {
	return p.DecompressAppend(make([]uint32, 0, p.n))
}

// DecompressAppend implements core.Posting.
func (p *bitsetPosting) DecompressAppend(dst []uint32) []uint32 {
	return kernels.ExtractWords(dst, p.words, 0)
}

// IntersectWith ANDs two bit vectors in 4-way-unrolled word batches and
// extracts the result through the shared kernel.
func (p *bitsetPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*bitsetPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return kernels.AndWordsExtract(nil, p.words, q.words, 0), nil
}

// UnionWith ORs two bit vectors in 4-way-unrolled word batches and
// extracts the result through the shared kernel.
func (p *bitsetPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*bitsetPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	out := make([]uint32, 0, p.n+q.n)
	return kernels.OrWordsExtract(out, p.words, q.words, 0), nil
}

// Contains reports whether v is set; used by list-vs-bitmap probing in
// multi-way intersections (§B.1).
func (p *bitsetPosting) Contains(v uint32) bool {
	i := int(v >> 6)
	return i < len(p.words) && p.words[i]&(1<<(v&63)) != 0
}
