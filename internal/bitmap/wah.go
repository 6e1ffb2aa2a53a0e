package bitmap

import "repro/internal/core"

// WAH (Word-Aligned Hybrid, §2.1) partitions the bitmap into 31-bit
// groups. A literal word has bit 31 clear and carries the 31 group bits;
// a fill word has bit 31 set, bit 30 holding the fill bit, and the low
// 30 bits holding the number of consecutive fill groups.
type WAH struct{}

// NewWAH returns the WAH codec.
func NewWAH() core.Codec { return WAH{} }

func (WAH) Name() string    { return "WAH" }
func (WAH) Kind() core.Kind { return core.KindBitmap }

const (
	wahWidth     = 31
	wahFillFlag  = uint32(1) << 31
	wahFillBit   = uint32(1) << 30
	wahMaxCount  = (uint32(1) << 30) - 1
	wahGroupMask = (uint32(1) << 31) - 1
)

func (WAH) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &wahPosting{n: len(values)}
	var pendingFill uint32 // pending 0-fill or 1-fill group count
	var pendingOne bool
	flush := func() {
		for pendingFill > 0 {
			c := pendingFill
			if c > wahMaxCount {
				c = wahMaxCount
			}
			w := wahFillFlag | c
			if pendingOne {
				w |= wahFillBit
			}
			p.words = append(p.words, w)
			pendingFill -= c
		}
	}
	forEachGroup(values, wahWidth, func(word uint64, count uint64) {
		switch {
		case word == 0:
			if pendingFill > 0 && pendingOne {
				flush()
			}
			pendingOne = false
			for count > 0 {
				room := uint64(wahMaxCount - pendingFill)
				add := count
				if add > room {
					add = room
				}
				pendingFill += uint32(add)
				count -= add
				if count > 0 {
					flush()
				}
			}
		case word == uint64(wahGroupMask):
			if pendingFill > 0 && !pendingOne {
				flush()
			}
			pendingOne = true
			pendingFill++
			if pendingFill == wahMaxCount {
				flush()
			}
		default:
			flush()
			p.words = append(p.words, uint32(word))
		}
	})
	flush()
	return p, nil
}

type wahPosting struct {
	words []uint32
	n     int
}

func (p *wahPosting) Len() int       { return p.n }
func (p *wahPosting) SizeBytes() int { return len(p.words) * 4 }

func (p *wahPosting) spans() spanReader { return &wahReader{words: p.words} }

func (p *wahPosting) Decompress() []uint32 { return decompressSpans(p.spans(), p.n) }

// DecompressAppend implements core.Posting on the span stream.
func (p *wahPosting) DecompressAppend(dst []uint32) []uint32 {
	return decompressSpansAppend(p.spans(), dst)
}

func (p *wahPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*wahPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return intersectSpanReaders(p.spans(), q.spans()), nil
}

func (p *wahPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*wahPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return unionSpanReaders(p.spans(), q.spans()), nil
}

type wahReader struct {
	words []uint32
	i     int
}

func (r *wahReader) next() (span, bool) {
	if r.i >= len(r.words) {
		return span{}, false
	}
	w := r.words[r.i]
	r.i++
	if w&wahFillFlag == 0 {
		return span{n: wahWidth, word: uint64(w), kind: literalSpan}, true
	}
	count := uint64(w & wahMaxCount)
	kind := zeroFill
	if w&wahFillBit != 0 {
		kind = oneFill
	}
	return span{n: count * wahWidth, kind: kind}, true
}
