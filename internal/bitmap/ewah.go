package bitmap

import "repro/internal/core"

// EWAH (Enhanced Word-Aligned Hybrid, §2.2) divides the bitmap into
// 32-bit groups and encodes a run of p fill groups followed by q literal
// groups as one marker word followed by the q literal words. Marker
// layout (from bit 0): 1 fill-bit, 16-bit fill count p (<= 65535),
// 15-bit literal count q (<= 32767).
type EWAH struct{}

// NewEWAH returns the EWAH codec.
func NewEWAH() core.Codec { return EWAH{} }

func (EWAH) Name() string    { return "EWAH" }
func (EWAH) Kind() core.Kind { return core.KindBitmap }

const (
	ewahWidth    = 32
	ewahMaxFill  = 65535
	ewahMaxLit   = 32767
	ewahGroupAll = ^uint32(0)
)

func ewahMarker(fillBit bool, p, q uint32) uint32 {
	m := p<<1 | q<<17
	if fillBit {
		m |= 1
	}
	return m
}

func (EWAH) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &ewahPosting{n: len(values)}
	var fillBit bool
	var fillCount uint32
	var literals []uint32
	emitMarker := func() {
		p.words = append(p.words, ewahMarker(fillBit, fillCount, uint32(len(literals))))
		p.words = append(p.words, literals...)
		fillCount = 0
		literals = literals[:0]
	}
	addFill := func(bit bool, count uint64) {
		if len(literals) > 0 {
			emitMarker()
		}
		if fillCount > 0 && fillBit != bit {
			emitMarker()
		}
		fillBit = bit
		for count > 0 {
			room := uint64(ewahMaxFill - fillCount)
			add := count
			if add > room {
				add = room
			}
			fillCount += uint32(add)
			count -= add
			if count > 0 {
				emitMarker()
				fillBit = bit
			}
		}
	}
	forEachGroup(values, ewahWidth, func(word uint64, count uint64) {
		switch {
		case word == 0:
			addFill(false, count)
		case word == uint64(ewahGroupAll):
			addFill(true, 1)
		default:
			literals = append(literals, uint32(word))
			if len(literals) == ewahMaxLit {
				emitMarker()
			}
		}
	})
	if fillCount > 0 || len(literals) > 0 {
		emitMarker()
	}
	return p, nil
}

type ewahPosting struct {
	words []uint32
	n     int
}

func (p *ewahPosting) Len() int       { return p.n }
func (p *ewahPosting) SizeBytes() int { return len(p.words) * 4 }

func (p *ewahPosting) spans() spanReader { return &ewahReader{words: p.words} }

func (p *ewahPosting) Decompress() []uint32 { return decompressSpans(p.spans(), p.n) }

// DecompressAppend implements core.Posting on the span stream.
func (p *ewahPosting) DecompressAppend(dst []uint32) []uint32 {
	return decompressSpansAppend(p.spans(), dst)
}

func (p *ewahPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*ewahPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return intersectSpanReaders(p.spans(), q.spans()), nil
}

func (p *ewahPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*ewahPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return unionSpanReaders(p.spans(), q.spans()), nil
}

type ewahReader struct {
	words []uint32
	i     int
	lit   uint32 // literal words still owed by the current marker
}

func (r *ewahReader) next() (span, bool) {
	for {
		if r.lit > 0 {
			r.lit--
			w := r.words[r.i]
			r.i++
			return span{n: ewahWidth, word: uint64(w), kind: literalSpan}, true
		}
		if r.i >= len(r.words) {
			return span{}, false
		}
		m := r.words[r.i]
		r.i++
		fill := uint64(m >> 1 & ewahMaxFill)
		r.lit = m >> 17
		if fill > 0 {
			kind := zeroFill
			if m&1 != 0 {
				kind = oneFill
			}
			return span{n: fill * ewahWidth, kind: kind}, true
		}
		// Marker with no fills: loop to emit its literals (or the next
		// marker if it has none either).
	}
}
