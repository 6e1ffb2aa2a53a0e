// Package intlist implements the inverted-list compression methods
// compared in the paper (§3): VB, GroupVB, Simple9/16/8b, the PforDelta
// family, PEF, and the SIMD-layout codecs, plus the uncompressed list
// baseline.
//
// Except for PEF and the raw list, codecs plug into a shared block frame
// (§5): lists are cut into blocks of 128 elements; each block gets a
// skip pointer holding a 32-bit offset and the block's 32-bit first
// value, enabling SvS intersection to decompress only the blocks that
// may contain a probe (§B, Appendix B). The SIMD codecs pack a block at
// the full 128-value width whatever it holds, so the frame VB-codes a
// short last block of theirs when that is smaller, as SIMD-BP128 codes
// the integers after its last full block.
package intlist

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// BlockSize is the number of elements per block; 128 follows the paper
// (§3 overview, footnote 5).
const BlockSize = 128

// BlockCodec encodes a single block of absolute, strictly increasing
// values. The block's first value travels in the skip pointer, so
// implementations encode only the remaining len(block)-1 values
// (typically as d-gaps).
type BlockCodec interface {
	Name() string
	// EncodeBlock appends the encoding of block (1..BlockSize values) to
	// dst and returns the extended slice.
	EncodeBlock(dst []byte, block []uint32) []byte
	// DecodeBlock fills out[1:] given out[0] = first value of the block,
	// returning the number of bytes consumed from src.
	DecodeBlock(src []byte, out []uint32) int
}

// Blocked adapts a BlockCodec into a full list codec with skip pointers.
type Blocked struct {
	BC BlockCodec
	// NoSkips disables the skip-pointer array: its space is not counted
	// and SeekGEQ degrades to sequential scanning. Used by the Figure 7
	// ablation.
	NoSkips bool
	// Size overrides the elements-per-block count (0 means BlockSize).
	// Values above BlockSize are rejected: the codecs' scratch buffers
	// are sized to the paper's 128. Used by the block-size ablation.
	Size int
}

// NewBlocked wraps bc in the standard skip-pointered block frame.
func NewBlocked(bc BlockCodec) core.Codec { return Blocked{BC: bc} }

// NewBlockedNoSkips wraps bc without skip pointers (Figure 7 baseline).
func NewBlockedNoSkips(bc BlockCodec) core.Codec { return Blocked{BC: bc, NoSkips: true} }

// NewBlockedSize wraps bc with a custom block size (the ablation on the
// paper's footnote-5 choice of 128).
func NewBlockedSize(bc BlockCodec, size int) core.Codec { return Blocked{BC: bc, Size: size} }

// Name reports the inner codec's table name ("-noskip" suffixed for
// the Figure 7 ablation variant).
func (b Blocked) Name() string {
	if b.NoSkips {
		return b.BC.Name() + "-noskip"
	}
	return b.BC.Name()
}

func (Blocked) Kind() core.Kind { return core.KindList }

// GapLimited is implemented by block codecs whose format caps the d-gap
// magnitude (the 28-bit data field of Simple9/Simple16). Blocked.Compress
// rejects inputs beyond the limit with a descriptive error.
type GapLimited interface {
	MaxGap() uint32
}

// Compress cuts values into blocks, encodes each with the inner codec,
// and attaches skip pointers. A short last block of a codec that pads
// (padsPartialBlock) is VB-coded instead when that is smaller.
func (b Blocked) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	bs := b.Size
	if bs == 0 {
		bs = BlockSize
	}
	if bs < 2 || bs > BlockSize {
		return nil, fmt.Errorf("intlist: block size %d out of range [2, %d]", bs, BlockSize)
	}
	if gl, ok := b.BC.(GapLimited); ok {
		limit := gl.MaxGap()
		for i := 1; i < len(values); i++ {
			// A block's first value travels in its skip pointer, so
			// only the gaps inside a block are coded.
			if i%bs != 0 && values[i]-values[i-1] > limit {
				return nil, fmt.Errorf("intlist: %s cannot encode gap %d (limit %d)",
					b.BC.Name(), values[i]-values[i-1], limit)
			}
		}
	}
	p := &listPosting{bc: b.BC, n: len(values), noSkips: b.NoSkips, bs: bs}
	for i := 0; i < len(values); i += bs {
		j := i + bs
		if j > len(values) {
			j = len(values)
		}
		block := values[i:j]
		p.skips = append(p.skips, skipEntry{offset: uint32(len(p.data)), first: block[0]})
		p.data = b.BC.EncodeBlock(p.data, block)
	}
	if r := len(values) % bs; r != 0 && padsPartialBlock(b.BC) {
		off := p.skips[len(p.skips)-1].offset
		tail := values[len(values)-r:]
		if vbSize(tail) < len(p.data)-int(off) {
			p.data = vbBlock{}.EncodeBlock(p.data[:off], tail)
			p.vbTail = true
		}
	}
	return p, nil
}

// padsPartialBlock reports whether bc packs a block of fewer than
// BlockSize values at the full 128-value width, 16 bytes a bit, so that
// VB may code a short last block in less.
func padsPartialBlock(bc BlockCodec) bool {
	switch bc.(type) {
	case simdBP128Block, simdBP128StarBlock, simdPFDBlock, simdPFDStarBlock:
		return true
	}
	return false
}

// vbSize is the length of vbBlock's encoding of block.
func vbSize(block []uint32) int {
	n := 0
	for i := 1; i < len(block); i++ {
		n++
		for g := block[i] - block[i-1]; g >= 1<<7; g >>= 7 {
			n++
		}
	}
	return n
}

type skipEntry struct {
	offset uint32 // byte offset of the block payload in data
	first  uint32 // first value of the block
}

type listPosting struct {
	bc      BlockCodec
	data    []byte  // the payload; nil in a stored posting
	fetcher Fetcher // serves a stored posting's payload
	stored  int     // a stored posting's payload length
	skips   []skipEntry
	n       int
	bs      int // elements per block
	noSkips bool
	vbTail  bool // the last block is VB-coded, whatever bc is
}

func (p *listPosting) Len() int { return p.n }

// SizeBytes counts the payload, held or stored, plus 8 bytes per skip
// pointer (32-bit offset + 32-bit start value, §5).
func (p *listPosting) SizeBytes() int {
	n := len(p.data)
	if p.fetcher != nil {
		n = p.stored
	}
	if p.noSkips {
		return n
	}
	return n + 8*len(p.skips)
}

// blockLen reports the number of values in block b.
func (p *listPosting) blockLen(b int) int {
	if b == len(p.skips)-1 {
		if r := p.n % p.bs; r != 0 {
			return r
		}
	}
	return p.bs
}

// decodeBlock fills buf with block b's values and returns buf[:len].
func (p *listPosting) decodeBlock(b int, buf []uint32) []uint32 {
	n := p.blockLen(b)
	out := buf[:n]
	out[0] = p.skips[b].first
	var src []byte
	if p.fetcher == nil {
		src = p.data[p.skips[b].offset:]
	} else {
		src = p.fetchBlock(b)
	}
	if p.vbTail && b == len(p.skips)-1 {
		vbBlock{}.DecodeBlock(src, out)
	} else {
		p.bc.DecodeBlock(src, out)
	}
	return out
}

// fetchBlock fetches exactly block b's extent of a stored posting's
// payload, so every byte an operation reads is counted.
func (p *listPosting) fetchBlock(b int) []byte {
	off, end := int(p.skips[b].offset), p.stored
	if b+1 < len(p.skips) {
		end = int(p.skips[b+1].offset)
	}
	return p.fetcher.Fetch(off, end-off)
}

// BlockSpan implements core.BlockDecoder (values per full block).
func (p *listPosting) BlockSpan() int { return p.bs }

// NumBlocks implements core.BlockDecoder.
func (p *listPosting) NumBlocks() int { return len(p.skips) }

// BlockFirst implements core.BlockDecoder.
func (p *listPosting) BlockFirst(b int) uint32 { return p.skips[b].first }

// DecodeBlock implements core.BlockDecoder: ranked-retrieval cursors
// use it to materialize only the blocks that survive block-max pruning.
func (p *listPosting) DecodeBlock(b int, buf []uint32) []uint32 {
	return p.decodeBlock(b, buf)
}

func (p *listPosting) Decompress() []uint32 {
	return p.DecompressAppend(make([]uint32, 0, p.n))
}

// DecompressAppend implements core.Posting: blocks decode
// directly into positioned sub-slices of the grown destination.
func (p *listPosting) DecompressAppend(dst []uint32) []uint32 {
	base := len(dst)
	dst = core.GrowLen(dst, p.n)
	for b := range p.skips {
		lo := base + b*p.bs
		p.decodeBlock(b, dst[lo:lo+p.blockLen(b)])
	}
	return dst
}

// Iterator returns a skipping iterator (core.Seeker).
func (p *listPosting) Iterator() core.Iterator {
	return &listIterator{p: p, block: -1}
}

type listIterator struct {
	p     *listPosting
	buf   [BlockSize]uint32
	cur   []uint32
	block int // decoded block index, -1 before start
	pos   int
}

func (it *listIterator) loadBlock(b int) {
	it.cur = it.p.decodeBlock(b, it.buf[:])
	it.block = b
	it.pos = 0
}

func (it *listIterator) Next() (uint32, bool) {
	for {
		if it.block >= 0 && it.pos < len(it.cur) {
			v := it.cur[it.pos]
			it.pos++
			return v, true
		}
		nb := it.block + 1
		if nb >= len(it.p.skips) {
			return 0, false
		}
		it.loadBlock(nb)
	}
}

// SeekGEQ advances to the first value >= target. With skip pointers it
// binary-searches the skip array and decodes only the candidate block;
// without them it decodes blocks sequentially until the target's block
// is reached (Figure 7's "no skip pointers" configuration).
func (it *listIterator) SeekGEQ(target uint32) (uint32, bool) {
	p := it.p
	nb := len(p.skips)
	if nb == 0 {
		return 0, false
	}
	// Never move backward: if the last yielded value already reached
	// the target, stay on it (SvS probes with increasing targets).
	if it.block >= 0 && it.pos > 0 && it.cur[it.pos-1] >= target {
		return it.cur[it.pos-1], true
	}
	if p.noSkips {
		if it.block < 0 {
			it.loadBlock(0)
		}
		for it.cur[len(it.cur)-1] < target {
			if it.block+1 >= nb {
				return 0, false
			}
			it.loadBlock(it.block + 1)
		}
	} else {
		start := it.block
		if start < 0 {
			start = 0
		}
		// Gallop over the skip array from the current block instead of
		// binary-searching all remaining blocks: SvS probes arrive in
		// increasing order and usually land a few blocks ahead, so
		// doubling probes cost O(log jump) per seek — O(1) for
		// sequential locality — while a distant jump still degrades
		// gracefully to the full binary search.
		f := start // first block in [start, nb) whose first value > target
		if p.skips[start].first <= target {
			bound := 1
			for start+bound < nb && p.skips[start+bound].first <= target {
				bound <<= 1
			}
			// skips[start+bound/2].first <= target; the answer lies in
			// (start+bound/2, start+bound].
			i, j := start+bound/2+1, min(start+bound+1, nb)
			for i < j {
				m := int(uint(i+j) >> 1)
				if p.skips[m].first <= target {
					i = m + 1
				} else {
					j = m
				}
			}
			f = i
		}
		// Last block whose first value <= target (never before start).
		b := f - 1
		if b < start {
			b = start
		}
		if b != it.block {
			it.loadBlock(b)
		}
		if it.cur[len(it.cur)-1] < target {
			// The answer, if any, is the first element of the next block:
			// its skip first value is > target by construction.
			if b+1 >= nb {
				return 0, false
			}
			it.loadBlock(b + 1)
		}
	}
	i := sort.Search(len(it.cur), func(i int) bool { return it.cur[i] >= target })
	if i == len(it.cur) {
		return 0, false // unreachable after the block checks above
	}
	it.pos = i + 1
	return it.cur[i], true
}
