package intlist

import (
	"sort"

	"repro/internal/core"
)

// RawList is the uncompressed inverted list baseline ("List" in the
// paper's legends): 32 bits per value. Its "decompression" cost is a
// memory copy, matching the paper's measurement methodology (§5).
type RawList struct{}

// NewRawList returns the uncompressed-list codec.
func NewRawList() core.Codec { return RawList{} }

func (RawList) Name() string    { return "List" }
func (RawList) Kind() core.Kind { return core.KindList }

func (RawList) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &rawPosting{values: make([]uint32, len(values))}
	copy(p.values, values)
	return p, nil
}

type rawPosting struct {
	values []uint32
}

func (p *rawPosting) Len() int       { return len(p.values) }
func (p *rawPosting) SizeBytes() int { return 4 * len(p.values) }

func (p *rawPosting) Decompress() []uint32 {
	out := make([]uint32, len(p.values))
	copy(out, p.values)
	return out
}

// DecompressAppend implements core.Posting.
func (p *rawPosting) DecompressAppend(dst []uint32) []uint32 {
	return append(dst, p.values...)
}

func (p *rawPosting) Iterator() core.Iterator { return &rawIterator{values: p.values} }

type rawIterator struct {
	values []uint32
	pos    int
}

func (it *rawIterator) Next() (uint32, bool) {
	if it.pos >= len(it.values) {
		return 0, false
	}
	v := it.values[it.pos]
	it.pos++
	return v, true
}

func (it *rawIterator) SeekGEQ(target uint32) (uint32, bool) {
	if it.pos > 0 && it.values[it.pos-1] >= target {
		return it.values[it.pos-1], true
	}
	rest := it.values[it.pos:]
	i := sort.Search(len(rest), func(i int) bool { return rest[i] >= target })
	if i == len(rest) {
		it.pos = len(it.values)
		return 0, false
	}
	it.pos += i + 1
	return rest[i], true
}
