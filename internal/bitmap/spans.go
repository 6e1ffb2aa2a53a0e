// Package bitmap implements the nine bitmap compression methods compared
// in the paper (§2): Bitset, WAH, EWAH, CONCISE, PLWAH, VALWAH, SBH, BBC,
// and Roaring.
//
// All RLE-style codecs (everything except Bitset and Roaring) share a
// common execution engine: each codec exposes its compressed form as a
// stream of spans — zero fills, one fills, and literal words of the
// codec's native group width — and generic merge loops implement
// decompression, intersection, and union directly on those streams
// without materializing the uncompressed bitmap, exactly as the paper
// describes for WAH's active-word algorithm (§2.1). Working in bit space
// (rather than fixed word space) also handles VALWAH's variable segment
// lengths and the byte-aligned codecs uniformly.
package bitmap

import "repro/internal/kernels"

type spanKind uint8

const (
	zeroFill spanKind = iota
	oneFill
	literalSpan
)

// span is a contiguous range of bitmap bits. Fill spans may cover
// arbitrarily many bits; literal spans cover at most 64 bits carried in
// word (bit i of word = bitmap bit start+i).
type span struct {
	n    uint64 // length in bits
	word uint64 // literal payload (literalSpan only)
	kind spanKind
}

// spanReader streams the spans of a compressed bitmap from bit 0 upward,
// contiguously.
type spanReader interface {
	next() (span, bool)
}

// spanCursor tracks a position inside the current span of a reader.
type spanCursor struct {
	r   spanReader
	cur span
	off uint64 // bits consumed within cur
	pos uint64 // absolute bit position of cur start + off
	ok  bool
}

func newSpanCursor(r spanReader) *spanCursor {
	c := &spanCursor{r: r}
	c.cur, c.ok = r.next()
	return c
}

func (c *spanCursor) remaining() uint64 { return c.cur.n - c.off }

// bits extracts the next n bits (n <= 64, n <= remaining) without
// consuming them.
func (c *spanCursor) bits(n uint64) uint64 {
	switch c.cur.kind {
	case zeroFill:
		return 0
	case oneFill:
		if n == 64 {
			return ^uint64(0)
		}
		return (uint64(1) << n) - 1
	default:
		w := c.cur.word >> c.off
		if n < 64 {
			w &= (uint64(1) << n) - 1
		}
		return w
	}
}

func (c *spanCursor) advance(n uint64) {
	c.off += n
	c.pos += n
	for c.ok && c.off >= c.cur.n {
		c.off -= c.cur.n
		c.cur, c.ok = c.r.next()
	}
}

// appendRun appends pos, pos+1, ..., pos+n-1 to out.
func appendRun(out []uint32, pos, n uint64) []uint32 {
	for i := uint64(0); i < n; i++ {
		out = append(out, uint32(pos+i))
	}
	return out
}

// appendWordBits appends the positions of set bits of w, offset by base.
func appendWordBits(out []uint32, base uint64, w uint64) []uint32 {
	return kernels.ExtractWord(out, w, uint32(base))
}

// decompressSpans extracts all set-bit positions from a span stream.
// sizeHint preallocates the output.
func decompressSpans(r spanReader, sizeHint int) []uint32 {
	return decompressSpansAppend(r, make([]uint32, 0, sizeHint))
}

// decompressSpansAppend appends all set-bit positions of a span stream
// to dst — the DecompressAppend body shared by every RLE-style codec in
// this package.
func decompressSpansAppend(r spanReader, dst []uint32) []uint32 {
	pos := uint64(0)
	for {
		s, ok := r.next()
		if !ok {
			return dst
		}
		switch s.kind {
		case oneFill:
			dst = appendRun(dst, pos, s.n)
		case literalSpan:
			dst = appendWordBits(dst, pos, s.word)
		}
		pos += s.n
	}
}

// intersectSpanReaders computes AND over two span streams, emitting the
// result as an uncompressed sorted list (§B.1). Fill runs are skipped in
// O(1) per span; literal overlaps are combined 64 bits at a time.
func intersectSpanReaders(a, b spanReader) []uint32 {
	var out []uint32
	ca, cb := newSpanCursor(a), newSpanCursor(b)
	for ca.ok && cb.ok {
		if ca.cur.kind == zeroFill || cb.cur.kind == zeroFill {
			// Nothing can match inside a zero fill: skip its full extent
			// on both sides (the longest one if both are zero fills).
			var skip uint64
			if ca.cur.kind == zeroFill {
				skip = ca.remaining()
			}
			if cb.cur.kind == zeroFill && cb.remaining() > skip {
				skip = cb.remaining()
			}
			ca.advance(skip)
			cb.advance(skip)
			continue
		}
		if ca.cur.kind == oneFill && cb.cur.kind == oneFill {
			run := min(ca.remaining(), cb.remaining())
			out = appendRun(out, ca.pos, run)
			ca.advance(run)
			cb.advance(run)
			continue
		}
		// At least one literal: combine up to 64 bits.
		n := min(min(ca.remaining(), cb.remaining()), 64)
		w := ca.bits(n) & cb.bits(n)
		if w != 0 {
			out = appendWordBits(out, ca.pos, w)
		}
		ca.advance(n)
		cb.advance(n)
	}
	return out
}

// unionSpanReaders computes OR over two span streams as an uncompressed
// sorted list. When one stream ends the other is drained.
func unionSpanReaders(a, b spanReader) []uint32 {
	var out []uint32
	ca, cb := newSpanCursor(a), newSpanCursor(b)
	for ca.ok && cb.ok {
		if ca.cur.kind == zeroFill && cb.cur.kind == zeroFill {
			skip := min(ca.remaining(), cb.remaining())
			ca.advance(skip)
			cb.advance(skip)
			continue
		}
		if ca.cur.kind == oneFill || cb.cur.kind == oneFill {
			// Everything inside a one fill is set regardless of the other
			// side: emit its full extent (the longest if both are fills).
			var run uint64
			if ca.cur.kind == oneFill {
				run = ca.remaining()
			}
			if cb.cur.kind == oneFill && cb.remaining() > run {
				run = cb.remaining()
			}
			out = appendRun(out, ca.pos, run)
			ca.advance(run)
			cb.advance(run)
			continue
		}
		n := min(min(ca.remaining(), cb.remaining()), 64)
		w := ca.bits(n) | cb.bits(n)
		if w != 0 {
			out = appendWordBits(out, ca.pos, w)
		}
		ca.advance(n)
		cb.advance(n)
	}
	out = drainCursor(out, ca)
	out = drainCursor(out, cb)
	return out
}

func drainCursor(out []uint32, c *spanCursor) []uint32 {
	for c.ok {
		rem := c.remaining()
		switch c.cur.kind {
		case oneFill:
			out = appendRun(out, c.pos, rem)
		case literalSpan:
			out = appendWordBits(out, c.pos, c.bits(rem))
		}
		c.advance(rem)
	}
	return out
}

// forEachGroup partitions the bitmap defined by sorted values into
// width-w groups and invokes emit for each: runs of empty groups are
// aggregated as emit(0, count); populated groups arrive as
// emit(word, 1) with bit i of word = bitmap bit group*w+i.
func forEachGroup(values []uint32, w uint32, emit func(word uint64, count uint64)) {
	i := 0
	g := uint64(0)
	ww := uint64(w)
	for i < len(values) {
		vg := uint64(values[i]) / ww
		if vg > g {
			emit(0, vg-g)
			g = vg
		}
		var word uint64
		base := g * ww
		for i < len(values) && uint64(values[i]) < base+ww {
			word |= 1 << (uint64(values[i]) - base)
			i++
		}
		emit(word, 1)
		g++
	}
}

// groupMask returns the all-ones pattern for a w-bit group.
func groupMask(w uint32) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}
