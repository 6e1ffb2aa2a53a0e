package bitmap

import "repro/internal/core"

// SBH (Super Byte-aligned Hybrid, §2.6) divides the bitmap into 7-bit
// groups encoded one per byte. A literal byte has bit 7 clear and its
// low 7 bits copied from the group. Fill runs of k groups are encoded
// in one byte (bit 7 set, bit 6 the fill bit, low 6 bits k) when k <= 63,
// or in two such bytes (low 6 bits of k, then high 6 bits of k) when
// 63 < k <= 4093. The decoder distinguishes the forms by peeking at the
// next byte — the extra flag inspection per iteration is what makes SBH
// slower than BBC in the paper's measurements (§5.1 observation 7).
type SBH struct{}

// NewSBH returns the SBH codec.
func NewSBH() core.Codec { return SBH{} }

func (SBH) Name() string    { return "SBH" }
func (SBH) Kind() core.Kind { return core.KindBitmap }

const (
	sbhWidth   = 7
	sbhFill    = byte(0x80)
	sbhFillBit = byte(0x40)
	sbhMaxOne  = uint64(63)
	sbhMaxTwo  = uint64(4093)
)

func (SBH) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &sbhPosting{n: len(values)}
	emitFill := func(bit bool, count uint64) {
		fb := byte(0)
		if bit {
			fb = sbhFillBit
		}
		if count <= sbhMaxOne {
			p.data = append(p.data, sbhFill|fb|byte(count))
			return
		}
		// Two-byte chunks only: a trailing one-byte form would be
		// misparsed as the high half of the preceding pair.
		for count > 0 {
			c := count
			if c > sbhMaxTwo {
				c = sbhMaxTwo
			}
			p.data = append(p.data,
				sbhFill|fb|byte(c&63),
				sbhFill|fb|byte(c>>6))
			count -= c
		}
	}
	var run uint64
	var runBit bool
	forEachGroup(values, sbhWidth, func(word uint64, count uint64) {
		switch {
		case word == 0:
			if run > 0 && runBit {
				emitFill(true, run)
				run = 0
			}
			runBit = false
			run += count
		case word == uint64(groupMask(sbhWidth)):
			if run > 0 && !runBit {
				emitFill(false, run)
				run = 0
			}
			runBit = true
			run++
		default:
			if run > 0 {
				emitFill(runBit, run)
				run = 0
			}
			p.data = append(p.data, byte(word))
		}
	})
	if run > 0 {
		emitFill(runBit, run)
	}
	return p, nil
}

type sbhPosting struct {
	data []byte
	n    int
}

func (p *sbhPosting) Len() int       { return p.n }
func (p *sbhPosting) SizeBytes() int { return len(p.data) }

func (p *sbhPosting) spans() spanReader { return &sbhReader{data: p.data} }

func (p *sbhPosting) Decompress() []uint32 { return decompressSpans(p.spans(), p.n) }

// DecompressAppend implements core.Posting on the span stream.
func (p *sbhPosting) DecompressAppend(dst []uint32) []uint32 {
	return decompressSpansAppend(p.spans(), dst)
}

func (p *sbhPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*sbhPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return intersectSpanReaders(p.spans(), q.spans()), nil
}

func (p *sbhPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*sbhPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return unionSpanReaders(p.spans(), q.spans()), nil
}

type sbhReader struct {
	data []byte
	i    int
}

func (r *sbhReader) next() (span, bool) {
	if r.i >= len(r.data) {
		return span{}, false
	}
	b := r.data[r.i]
	r.i++
	if b&sbhFill == 0 {
		return span{n: sbhWidth, word: uint64(b), kind: literalSpan}, true
	}
	count := uint64(b & 63)
	// Two-byte form: the next byte is a fill byte with the same fill bit.
	if r.i < len(r.data) {
		nb := r.data[r.i]
		if nb&sbhFill != 0 && nb&sbhFillBit == b&sbhFillBit {
			count |= uint64(nb&63) << 6
			r.i++
		}
	}
	kind := zeroFill
	if b&sbhFillBit != 0 {
		kind = oneFill
	}
	return span{n: count * sbhWidth, kind: kind}, true
}
