package bitmap

import "repro/internal/core"

// PLWAH (Position List WAH, §2.4) uses 31-bit groups like WAH. Literal
// words have bit 31 clear. Fill words have bit 31 set, bit 30 the fill
// bit, bits 29..25 a 5-bit odd-bit position, and the low 25 bits the
// fill-group count. A non-zero odd position means the fill groups are
// followed by a literal group that differs from the fill pattern in
// exactly that (1-based) bit — the "literal group preceded by a fill
// group" fusion.
type PLWAH struct{}

// NewPLWAH returns the PLWAH codec.
func NewPLWAH() core.Codec { return PLWAH{} }

func (PLWAH) Name() string    { return "PLWAH" }
func (PLWAH) Kind() core.Kind { return core.KindBitmap }

const (
	plwFillFlag  = uint32(1) << 31
	plwFillBit   = uint32(1) << 30
	plwOddShift  = 25
	plwOddMask   = uint32(31)
	plwCountMask = (uint32(1) << 25) - 1
	plwMaxFills  = uint64(1)<<25 - 1
)

func (PLWAH) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &plwahPosting{n: len(values)}
	items := collectGroups(values, wahWidth)
	emitFill := func(bit bool, count uint64, odd uint32) {
		// odd attaches to the last emitted word of a chunked run.
		for count > 0 {
			c := count
			if c > plwMaxFills {
				c = plwMaxFills
			}
			count -= c
			w := plwFillFlag | uint32(c)
			if bit {
				w |= plwFillBit
			}
			if count == 0 {
				w |= odd << plwOddShift
			}
			p.words = append(p.words, w)
		}
	}
	for i := 0; i < len(items); i++ {
		it := items[i]
		if it.count == 0 {
			p.words = append(p.words, it.word) // literal, flag bit already 0
			continue
		}
		// Fill run: fuse the following literal when it is one odd bit
		// away from this fill's pattern.
		if i+1 < len(items) && items[i+1].count == 0 {
			if pos, ok := oddBitOf(items[i+1].word, it.bit, wahWidth); ok {
				emitFill(it.bit, it.count, pos+1)
				i++
				continue
			}
		}
		emitFill(it.bit, it.count, 0)
	}
	return p, nil
}

type plwahPosting struct {
	words []uint32
	n     int
}

func (p *plwahPosting) Len() int       { return p.n }
func (p *plwahPosting) SizeBytes() int { return len(p.words) * 4 }

func (p *plwahPosting) spans() spanReader { return &plwahReader{words: p.words} }

func (p *plwahPosting) Decompress() []uint32 { return decompressSpans(p.spans(), p.n) }

// DecompressAppend implements core.Posting on the span stream.
func (p *plwahPosting) DecompressAppend(dst []uint32) []uint32 {
	return decompressSpansAppend(p.spans(), dst)
}

func (p *plwahPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*plwahPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return intersectSpanReaders(p.spans(), q.spans()), nil
}

func (p *plwahPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*plwahPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return unionSpanReaders(p.spans(), q.spans()), nil
}

type plwahReader struct {
	words      []uint32
	i          int
	pendingLit uint64 // mixed literal owed after a fill span (+1 flag)
	hasPending bool
}

func (r *plwahReader) next() (span, bool) {
	if r.hasPending {
		r.hasPending = false
		return span{n: wahWidth, word: r.pendingLit, kind: literalSpan}, true
	}
	if r.i >= len(r.words) {
		return span{}, false
	}
	w := r.words[r.i]
	r.i++
	if w&plwFillFlag == 0 {
		return span{n: wahWidth, word: uint64(w), kind: literalSpan}, true
	}
	count := uint64(w & plwCountMask)
	kind := zeroFill
	pattern := uint64(0)
	if w&plwFillBit != 0 {
		kind = oneFill
		pattern = uint64(wahGroupMask)
	}
	if odd := w >> plwOddShift & plwOddMask; odd != 0 {
		r.pendingLit = pattern ^ (1 << (odd - 1))
		r.hasPending = true
	}
	return span{n: count * wahWidth, kind: kind}, true
}
