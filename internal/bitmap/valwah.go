package bitmap

import (
	"repro/internal/bitio"
	"repro/internal/core"
)

// VALWAH (Variable-Aligned Length WAH, §2.5) generalizes WAH's 31-bit
// groups to per-bitmap segment lengths s = 2^i * (b-1) with alignment
// factor b. With the paper's w=32, b=8 this yields s in {7, 14, 28}.
// Each bitmap is encoded with the segment length that minimizes its
// size (the paper's space-optimal lambda setting). Segments are packed
// in a bitstream: a flag bit, then either s literal bits or a fill bit
// plus an (s-1)-bit run counter. The bit-granular (rather than
// word-aligned) layout is exactly the "segment alignment issue" the
// paper blames for VALWAH's slow queries (§5.2 observation 3).
type VALWAH struct {
	// Lambda is the paper's space/time tradeoff knob (§2.5): segment
	// selection minimizes bits + Lambda*units, where a unit is one
	// encoded segment (the per-segment decode step). Lambda = 0 is
	// space-optimal; large Lambda prefers longer segments (fewer decode
	// steps, approaching WAH's behavior).
	Lambda float64
}

// NewVALWAH returns the space-optimal VALWAH codec (lambda = 0).
func NewVALWAH() core.Codec { return VALWAH{} }

// NewVALWAHLambda returns VALWAH with the given tradeoff factor.
func NewVALWAHLambda(lambda float64) core.Codec { return VALWAH{Lambda: lambda} }

func (VALWAH) Name() string    { return "VALWAH" }
func (VALWAH) Kind() core.Kind { return core.KindBitmap }

var valwahSegments = []uint32{7, 14, 28}

// valwahCost computes the encoded bit count and unit (segment) count at
// segment size s without materializing the encoding.
func valwahCost(values []uint32, s uint32) (bits, units uint64) {
	unit := uint64(s) + 1
	maxRun := uint64(1)<<(s-1) - 1
	addFillRun := func(count uint64) {
		if count == 0 {
			return
		}
		words := (count + maxRun - 1) / maxRun
		bits += words * unit
		units += words
	}
	var run uint64
	var runBit bool
	mask := groupMask(s)
	forEachGroup(values, s, func(word uint64, count uint64) {
		switch {
		case word == 0:
			if run > 0 && runBit {
				addFillRun(run)
				run = 0
			}
			runBit = false
			run += count
		case word == mask:
			if run > 0 && !runBit {
				addFillRun(run)
				run = 0
			}
			runBit = true
			run++
		default:
			addFillRun(run)
			run = 0
			bits += unit
			units++
		}
	})
	addFillRun(run)
	return bits, units
}

// Compress picks the segment length minimizing bits + Lambda*units and
// encodes the bitmap as a packed segment stream.
func (v VALWAH) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	score := func(s uint32) float64 {
		bits, units := valwahCost(values, s)
		return float64(bits) + v.Lambda*float64(units)
	}
	best := valwahSegments[0]
	bestCost := score(best)
	for _, s := range valwahSegments[1:] {
		if c := score(s); c < bestCost {
			best, bestCost = s, c
		}
	}
	p := &valwahPosting{n: len(values), seg: best}
	var bw bitio.Writer
	s := best
	maxRun := uint64(1)<<(s-1) - 1
	emitFill := func(bit bool, count uint64) {
		for count > 0 {
			c := count
			if c > maxRun {
				c = maxRun
			}
			bw.WriteBool(true) // fill flag
			bw.WriteBool(bit)
			bw.Write(c, uint(s-1))
			count -= c
		}
	}
	var run uint64
	var runBit bool
	mask := groupMask(s)
	forEachGroup(values, s, func(word uint64, count uint64) {
		switch {
		case word == 0:
			if run > 0 && runBit {
				emitFill(true, run)
				run = 0
			}
			runBit = false
			run += count
		case word == mask:
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
			bw.WriteBool(false) // literal flag
			bw.Write(word, uint(s))
		}
	})
	if run > 0 {
		emitFill(runBit, run)
	}
	p.bits = bw.Words
	p.nbits = bw.NBits
	return p, nil
}

type valwahPosting struct {
	bits  []uint64
	nbits uint64
	n     int
	seg   uint32
}

func (p *valwahPosting) Len() int { return p.n }

// SizeBytes counts the packed bitstream plus a 1-byte segment header.
func (p *valwahPosting) SizeBytes() int { return int((p.nbits+7)/8) + 1 }

func (p *valwahPosting) spans() spanReader {
	return &valwahReader{r: bitio.Reader{Words: p.bits}, nbits: p.nbits, seg: p.seg}
}

func (p *valwahPosting) Decompress() []uint32 { return decompressSpans(p.spans(), p.n) }

// DecompressAppend implements core.Posting on the span stream.
func (p *valwahPosting) DecompressAppend(dst []uint32) []uint32 {
	return decompressSpansAppend(p.spans(), dst)
}

func (p *valwahPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*valwahPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	// Different segment lengths are realigned bit-by-bit by the span
	// engine — the alignment penalty the paper describes.
	return intersectSpanReaders(p.spans(), q.spans()), nil
}

func (p *valwahPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*valwahPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	return unionSpanReaders(p.spans(), q.spans()), nil
}

type valwahReader struct {
	r     bitio.Reader
	nbits uint64
	seg   uint32
}

func (r *valwahReader) next() (span, bool) {
	if r.r.Pos >= r.nbits {
		return span{}, false
	}
	if r.r.ReadBool() { // fill unit
		bit := r.r.ReadBool()
		count := r.r.Read(uint(r.seg - 1))
		kind := zeroFill
		if bit {
			kind = oneFill
		}
		return span{n: count * uint64(r.seg), kind: kind}, true
	}
	return span{n: uint64(r.seg), word: r.r.Read(uint(r.seg)), kind: literalSpan}, true
}
