package intlist

import (
	"math/bits"
	"sort"

	"repro/internal/bitio"
	"repro/internal/core"
)

// PEF (Partitioned Elias-Fano, §3.9) is not d-gap based. The list is cut
// into partitions of 128 elements; within each, values are encoded
// relative to the partition base with the classic EF split: the low l
// bits of each element go to a packed low-bit array, the remaining high
// bits become a unary-coded sequence in a high-bit array (the i-th
// element's one sits at bit high_i + i).
//
// The payoff matches the paper: SeekGEQ skips within a partition by
// counting zeros in the high-bit array word-at-a-time — no block
// decompression — so intersection is fast (§5.2 observation 2), while
// full decompression must visit every bit of the high array and is the
// slowest of all codecs (§5.1 observation 12).
type PEF struct{}

// NewPEF returns the PEF codec.
func NewPEF() core.Codec { return PEF{} }

func (PEF) Name() string    { return "PEF" }
func (PEF) Kind() core.Kind { return core.KindList }

// pefPartSize is the uniform partition size (the original paper
// optimizes partition boundaries; uniform partitions preserve the
// qualitative behavior).
const pefPartSize = 128

type pefPart struct {
	base    uint32 // first value of the partition
	lowOff  uint64 // bit offset into the low array
	highOff uint64 // bit offset into the high array
	highEnd uint64 // one past the partition's last high bit
	count   int
	l       uint8 // low-bit width
}

type pefPosting struct {
	parts    []pefPart
	low      []uint64
	high     []uint64
	lowBits  uint64
	highBits uint64
	n        int
}

func (PEF) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &pefPosting{n: len(values)}
	var lw, hw bitio.Writer
	for i := 0; i < len(values); i += pefPartSize {
		j := i + pefPartSize
		if j > len(values) {
			j = len(values)
		}
		part := values[i:j]
		base := part[0]
		u := uint64(part[len(part)-1] - base)
		n := uint64(len(part))
		var l uint8
		if u/n >= 1 {
			l = uint8(bits.Len64(u/n) - 1)
		}
		pp := pefPart{base: base, lowOff: lw.NBits, highOff: hw.NBits, count: len(part), l: l}
		prevHigh := uint64(0)
		for _, v := range part {
			off := uint64(v - base)
			lw.Write(off, uint(l))
			high := off >> l
			for prevHigh < high {
				hw.WriteBool(false)
				prevHigh++
			}
			hw.WriteBool(true)
		}
		pp.highEnd = hw.NBits
		p.parts = append(p.parts, pp)
	}
	p.low = lw.Words
	p.high = hw.Words
	// Track exact bit lengths for SizeBytes.
	p.lowBits, p.highBits = lw.NBits, hw.NBits
	return p, nil
}

func (p *pefPosting) Len() int { return p.n }

// SizeBytes counts both bit arrays plus 8 bytes of per-partition
// directory (base, low width, high length).
func (p *pefPosting) SizeBytes() int {
	return int((p.lowBits+7)/8) + int((p.highBits+7)/8) + 8*len(p.parts)
}

func (p *pefPosting) Decompress() []uint32 {
	return p.DecompressAppend(make([]uint32, 0, p.n))
}

// DecompressAppend implements core.Posting via the iterator.
func (p *pefPosting) DecompressAppend(dst []uint32) []uint32 {
	it := p.Iterator()
	for {
		v, ok := it.Next()
		if !ok {
			return dst
		}
		dst = append(dst, v)
	}
}

// Iterator returns a skipping iterator over the partitions.
func (p *pefPosting) Iterator() core.Iterator {
	return &pefIterator{p: p}
}

type pefIterator struct {
	p     *pefPosting
	part  int
	i     int    // elements consumed in the current partition
	hpos  uint64 // next unread bit in the high array
	zeros uint64 // zeros consumed in the current partition
	lastV uint32
	valid bool // lastV holds the most recent value
	init  bool // cursor entered the current partition
}

func (it *pefIterator) enterPart(k int) {
	pp := &it.p.parts[k]
	it.part = k
	it.i = 0
	it.hpos = pp.highOff
	it.zeros = 0
	it.init = true
}

func (it *pefIterator) Next() (uint32, bool) {
	p := it.p
	for {
		if !it.init {
			if it.part >= len(p.parts) {
				return 0, false
			}
			it.enterPart(it.part)
		}
		pp := &p.parts[it.part]
		if it.i >= pp.count {
			it.part++
			it.init = false
			continue
		}
		// Unary-decode the next high value.
		for !readBit(p.high, it.hpos) {
			it.zeros++
			it.hpos++
		}
		it.hpos++
		low := readBits(p.low, pp.lowOff+uint64(it.i)*uint64(pp.l), uint(pp.l))
		v := pp.base + uint32(it.zeros<<pp.l|low)
		it.i++
		it.lastV, it.valid = v, true
		return v, true
	}
}

// SeekGEQ jumps to the partition containing target via the directory,
// then skips hTarget zeros in the high array word-at-a-time before a
// short linear scan — no full-partition decode.
func (it *pefIterator) SeekGEQ(target uint32) (uint32, bool) {
	p := it.p
	if len(p.parts) == 0 {
		return 0, false
	}
	if it.valid && it.lastV >= target {
		return it.lastV, true
	}
	// Partition jump: last partition whose base <= target, never behind
	// the current one.
	start := it.part
	if start >= len(p.parts) {
		return 0, false
	}
	k := start + sort.Search(len(p.parts)-start, func(i int) bool {
		return p.parts[start+i].base > target
	}) - 1
	if k < start {
		k = start
	}
	if k != it.part || !it.init {
		it.enterPart(k)
	}
	pp := &p.parts[it.part]
	if target > pp.base {
		hTarget := uint64(target-pp.base) >> pp.l
		it.skipZeros(hTarget, pp)
	}
	for {
		v, ok := it.Next()
		if !ok {
			return 0, false
		}
		if v >= target {
			return v, true
		}
	}
}

// skipZeros consumes high-array bits until zeros >= hTarget, counting
// the ones passed (they are elements with smaller high parts).
func (it *pefIterator) skipZeros(hTarget uint64, pp *pefPart) {
	p := it.p
	for it.zeros < hTarget && it.hpos < pp.highEnd {
		// Word-at-a-time when fully inside the partition and far from
		// the target.
		if pp.highEnd-it.hpos >= 64 && it.hpos&63 == 0 {
			w := p.high[it.hpos>>6]
			ones := uint64(bits.OnesCount64(w))
			zw := 64 - ones
			if it.zeros+zw < hTarget {
				it.zeros += zw
				it.i += int(ones)
				it.hpos += 64
				continue
			}
		}
		if readBit(p.high, it.hpos) {
			it.i++
		} else {
			it.zeros++
		}
		it.hpos++
	}
}

func readBit(words []uint64, pos uint64) bool {
	return words[pos>>6]&(1<<(pos&63)) != 0
}

func readBits(words []uint64, pos uint64, n uint) uint64 {
	if n == 0 {
		return 0
	}
	off := uint(pos & 63)
	idx := int(pos >> 6)
	v := words[idx] >> off
	if off+n > 64 && idx+1 < len(words) {
		v |= words[idx+1] << (64 - off)
	}
	return v & (1<<n - 1)
}
