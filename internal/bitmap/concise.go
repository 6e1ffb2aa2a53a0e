package bitmap

import (
	"math/bits"

	"repro/internal/core"
)

// CONCISE (§2.3) uses 31-bit groups. A literal word has bit 31 set and
// carries the group bits. A fill word has bit 31 clear, bit 30 holding
// the fill bit, bits 29..25 a 5-bit odd-bit position (0 = none), and the
// low 25 bits the number of fill groups minus one. When the odd position
// is non-zero the word encodes a "mixed fill" literal group — the fill
// pattern with one bit flipped at the (1-based) odd position — followed
// by the fill groups, per the paper's "stores the mixed fill group with
// the next fill group".
type CONCISE struct{}

// NewCONCISE returns the CONCISE codec.
func NewCONCISE() core.Codec { return CONCISE{} }

func (CONCISE) Name() string    { return "CONCISE" }
func (CONCISE) Kind() core.Kind { return core.KindBitmap }

const (
	cncLiteralFlag = uint32(1) << 31
	cncFillBit     = uint32(1) << 30
	cncOddShift    = 25
	cncOddMask     = uint32(31)
	cncCountMask   = (uint32(1) << 25) - 1
	cncMaxFills    = uint64(1) << 25 // stored as count-1 in 25 bits
)

// groupItem is the intermediate run-merged form shared by the
// lookahead-style encoders (CONCISE fuses a literal with the fills that
// follow it).
type groupItem struct {
	count uint64 // fill groups (fill items) — 0 marks a literal item
	word  uint32 // literal payload
	bit   bool   // fill bit
}

// collectGroups run-merges the group stream of values at width w.
func collectGroups(values []uint32, w uint32) []groupItem {
	var items []groupItem
	mask := groupMask(w)
	forEachGroup(values, w, func(word uint64, count uint64) {
		switch {
		case word == 0:
			if k := len(items) - 1; k >= 0 && items[k].count > 0 && !items[k].bit {
				items[k].count += count
			} else {
				items = append(items, groupItem{count: count})
			}
		case word == mask:
			if k := len(items) - 1; k >= 0 && items[k].count > 0 && items[k].bit {
				items[k].count++
			} else {
				items = append(items, groupItem{count: 1, bit: true})
			}
		default:
			items = append(items, groupItem{word: uint32(word)})
		}
	})
	return items
}

// oddBitOf reports whether literal differs from a w-bit fill of bit b in
// exactly one position; pos is that position (0-based).
func oddBitOf(literal uint32, b bool, w uint32) (pos uint32, ok bool) {
	pattern := uint32(0)
	if b {
		pattern = uint32(groupMask(w))
	}
	diff := literal ^ pattern
	if diff == 0 || diff&(diff-1) != 0 {
		return 0, false
	}
	return uint32(bits.TrailingZeros32(diff)), true
}

func (CONCISE) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &concisePosting{n: len(values)}
	items := collectGroups(values, wahWidth)
	emitFill := func(bit bool, odd uint32, count uint64) {
		// odd applies to the first emitted word only.
		for count > 0 {
			c := count
			if c > cncMaxFills {
				c = cncMaxFills
			}
			w := uint32(c-1) & cncCountMask
			if bit {
				w |= cncFillBit
			}
			w |= odd << cncOddShift
			odd = 0
			p.words = append(p.words, w)
			count -= c
		}
	}
	for i := 0; i < len(items); i++ {
		it := items[i]
		if it.count > 0 {
			emitFill(it.bit, 0, it.count)
			continue
		}
		// Literal: fuse with the following fill run when it is a mixed
		// fill group (exactly one odd bit w.r.t. the next fill's bit).
		if i+1 < len(items) && items[i+1].count > 0 {
			nxt := items[i+1]
			if pos, ok := oddBitOf(it.word, nxt.bit, wahWidth); ok {
				emitFill(nxt.bit, pos+1, nxt.count)
				i++
				continue
			}
		}
		p.words = append(p.words, cncLiteralFlag|it.word)
	}
	return p, nil
}

type concisePosting struct {
	words []uint32
	n     int
}

func (p *concisePosting) Len() int       { return p.n }
func (p *concisePosting) SizeBytes() int { return len(p.words) * 4 }

func (p *concisePosting) spans() spanReader { return &conciseReader{words: p.words} }

func (p *concisePosting) Decompress() []uint32 { return decompressSpans(p.spans(), p.n) }

// DecompressAppend implements core.Posting on the span stream.
func (p *concisePosting) DecompressAppend(dst []uint32) []uint32 {
	return decompressSpansAppend(p.spans(), dst)
}

func (p *concisePosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*concisePosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return intersectSpanReaders(p.spans(), q.spans()), nil
}

func (p *concisePosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*concisePosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return unionSpanReaders(p.spans(), q.spans()), nil
}

type conciseReader struct {
	words []uint32
	i     int
	// pending fill issued after a mixed literal
	pending     uint64
	pendingKind spanKind
}

func (r *conciseReader) next() (span, bool) {
	if r.pending > 0 {
		s := span{n: r.pending * wahWidth, kind: r.pendingKind}
		r.pending = 0
		return s, true
	}
	if r.i >= len(r.words) {
		return span{}, false
	}
	w := r.words[r.i]
	r.i++
	if w&cncLiteralFlag != 0 {
		return span{n: wahWidth, word: uint64(w &^ cncLiteralFlag), kind: literalSpan}, true
	}
	count := uint64(w&cncCountMask) + 1
	kind := zeroFill
	pattern := uint64(0)
	if w&cncFillBit != 0 {
		kind = oneFill
		pattern = uint64(wahGroupMask)
	}
	odd := w >> cncOddShift & cncOddMask
	if odd == 0 {
		return span{n: count * wahWidth, kind: kind}, true
	}
	// Mixed literal first, then the fills.
	r.pending = count
	r.pendingKind = kind
	return span{n: wahWidth, word: pattern ^ (1 << (odd - 1)), kind: literalSpan}, true
}
