package bitmap

import "repro/internal/core"

// BBC (Byte-aligned Bitmap Code, §2.8) partitions the bitmap into bytes
// and encodes runs of fill bytes plus trailing literal bytes using four
// header patterns (Figure 2):
//
//	P1 1 f cc llll            : cc (<=3) fill bytes, llll (<=15) literal bytes follow
//	P2 01 f cc ppp            : cc (<=3) fill bytes + one odd byte (bit ppp flipped)
//	P3 001 f llll  + VB count : >=4 fill bytes (VB counter), llll literals follow
//	P4 0001 f ppp  + VB count : >=4 fill bytes + one odd byte
//
// Multi-byte counters use the paper's VB layout (§3.1). BBC achieves
// nearly the smallest space among bitmap codecs at the cost of decoding
// many cases (§5.1 observation 6).
type BBC struct{}

// NewBBC returns the BBC codec.
func NewBBC() core.Codec { return BBC{} }

func (BBC) Name() string    { return "BBC" }
func (BBC) Kind() core.Kind { return core.KindBitmap }

// bbcPutVB appends the paper-layout VB encoding of v: big-endian 7-bit
// digits, MSB set on all but the last byte.
func bbcPutVB(dst []byte, v uint64) []byte {
	var tmp [10]byte
	i := len(tmp)
	i--
	tmp[i] = byte(v & 0x7f)
	v >>= 7
	for v > 0 {
		i--
		tmp[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	return append(dst, tmp[i:]...)
}

// bbcReadVB decodes a paper-layout VB value starting at data[i].
func bbcReadVB(data []byte, i int) (v uint64, next int) {
	for i < len(data) {
		b := data[i]
		i++
		v = v<<7 | uint64(b&0x7f)
		if b&0x80 == 0 {
			break
		}
	}
	// A continuation byte at end-of-data (possible only on corrupt or
	// truncated input) terminates with the bits read so far; the
	// verify pass rejects the stream on its cardinality mismatch.
	return v, i
}

func (BBC) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &bbcPosting{n: len(values)}
	items := collectGroups(values, 8)
	i := 0
	for i < len(items) {
		var fillCount uint64
		var fillBit bool
		if items[i].count > 0 {
			fillCount = items[i].count
			fillBit = items[i].bit
			i++
		}
		// Gather the literal run that follows.
		j := i
		for j < len(items) && items[j].count == 0 {
			j++
		}
		lits := items[i:j]
		i = j
		// Odd-byte fusion: exactly one literal, one bit away from the fill.
		if len(lits) == 1 {
			if pos, ok := oddBitOf(lits[0].word, fillBit, 8); ok {
				if fillCount <= 3 {
					p.data = append(p.data, 0x40|boolBit(fillBit)<<5|byte(fillCount)<<3|byte(pos))
				} else {
					p.data = append(p.data, 0x10|boolBit(fillBit)<<3|byte(pos))
					p.data = bbcPutVB(p.data, fillCount)
				}
				continue
			}
		}
		// General form: one header carries the fills plus up to 15
		// literals; remaining literals use P1 headers with zero fills.
		for first := true; first || len(lits) > 0; first = false {
			take := len(lits)
			if take > 15 {
				take = 15
			}
			fc := fillCount
			if !first {
				fc = 0
			}
			if fc <= 3 {
				p.data = append(p.data, 0x80|boolBit(fillBit)<<6|byte(fc)<<4|byte(take))
			} else {
				p.data = append(p.data, 0x20|boolBit(fillBit)<<4|byte(take))
				p.data = bbcPutVB(p.data, fc)
			}
			for _, l := range lits[:take] {
				p.data = append(p.data, byte(l.word))
			}
			lits = lits[take:]
			if len(lits) == 0 {
				break
			}
		}
	}
	return p, nil
}

func boolBit(b bool) byte {
	if b {
		return 1
	}
	return 0
}

type bbcPosting struct {
	data []byte
	n    int
}

func (p *bbcPosting) Len() int       { return p.n }
func (p *bbcPosting) SizeBytes() int { return len(p.data) }

func (p *bbcPosting) spans() spanReader { return &bbcReader{data: p.data} }

func (p *bbcPosting) Decompress() []uint32 { return decompressSpans(p.spans(), p.n) }

// DecompressAppend implements core.Posting on the span stream.
func (p *bbcPosting) DecompressAppend(dst []uint32) []uint32 {
	return decompressSpansAppend(p.spans(), dst)
}

func (p *bbcPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*bbcPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return intersectSpanReaders(p.spans(), q.spans()), nil
}

func (p *bbcPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*bbcPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return unionSpanReaders(p.spans(), q.spans()), nil
}

type bbcReader struct {
	data []byte
	i    int
	lit  int    // literal bytes owed by the current header
	odd  uint64 // pending odd byte (+flag)
	has  bool
}

func (r *bbcReader) next() (span, bool) {
	if r.has {
		r.has = false
		return span{n: 8, word: r.odd, kind: literalSpan}, true
	}
	if r.lit > 0 {
		if r.i >= len(r.data) {
			// Corrupt input: the header promised more literal bytes
			// than the blob holds. End the stream; the verify pass
			// fails it on cardinality.
			r.lit = 0
			return span{}, false
		}
		r.lit--
		b := r.data[r.i]
		r.i++
		return span{n: 8, word: uint64(b), kind: literalSpan}, true
	}
	if r.i >= len(r.data) {
		return span{}, false
	}
	h := r.data[r.i]
	r.i++
	var fillBit bool
	var fillCount uint64
	switch {
	case h&0x80 != 0: // P1
		fillBit = h&0x40 != 0
		fillCount = uint64(h >> 4 & 3)
		r.lit = int(h & 15)
	case h&0x40 != 0: // P2
		fillBit = h&0x20 != 0
		fillCount = uint64(h >> 3 & 3)
		r.odd = oddByte(fillBit, h&7)
		r.has = true
	case h&0x20 != 0: // P3
		fillBit = h&0x10 != 0
		r.lit = int(h & 15)
		fillCount, r.i = bbcReadVB(r.data, r.i)
	default: // P4
		fillBit = h&0x08 != 0
		pos := h & 7
		fillCount, r.i = bbcReadVB(r.data, r.i)
		r.odd = oddByte(fillBit, pos)
		r.has = true
	}
	if fillCount > 0 {
		kind := zeroFill
		if fillBit {
			kind = oneFill
		}
		return span{n: fillCount * 8, kind: kind}, true
	}
	return r.next()
}

func oddByte(fillBit bool, pos byte) uint64 {
	if fillBit {
		return 0xff ^ (1 << pos)
	}
	return 1 << pos
}
