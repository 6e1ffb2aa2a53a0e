package intlist

import (
	"repro/internal/core"
)

// External storage support: the paper's evaluation is main-memory only
// and explicitly defers disks to future work (§4.1); it also criticizes
// [8] for letting the OS buffer cache confound its disk comparison. The
// stored-posting frame makes that experiment controllable: skip
// pointers stay in memory (as real systems keep them), block payloads
// live behind a Fetcher, and every payload access is explicit — so a
// simulated device (internal/iosim) can count exactly which bytes each
// operation touches.

// Fetcher supplies byte ranges of an externally stored payload.
type Fetcher interface {
	// Fetch returns payload bytes [offset, offset+length).
	Fetch(offset, length int) []byte
}

// CompressStored compresses values with the Blocked frame, hands the
// payload to store, and returns a posting whose block decodes fetch
// through the returned Fetcher.
func (b Blocked) CompressStored(values []uint32, store func(payload []byte) Fetcher) (core.Posting, error) {
	p0, err := b.Compress(values)
	if err != nil {
		return nil, err
	}
	lp := p0.(*listPosting)
	sp := &storedPosting{
		bc:      lp.bc,
		skips:   lp.skips,
		n:       lp.n,
		bs:      lp.bs,
		noSkips: lp.noSkips,
		vbTail:  lp.vbTail,
		dataLen: len(lp.data),
		fetcher: store(lp.data),
	}
	return sp, nil
}

// storedPosting mirrors listPosting with the payload behind a Fetcher.
type storedPosting struct {
	bc      BlockCodec
	fetcher Fetcher
	skips   []skipEntry
	dataLen int
	n       int
	bs      int
	noSkips bool
	vbTail  bool
}

func (p *storedPosting) Len() int { return p.n }

// SizeBytes reports payload plus in-memory skip pointers, matching the
// in-memory frame's accounting.
func (p *storedPosting) SizeBytes() int {
	if p.noSkips {
		return p.dataLen
	}
	return p.dataLen + 8*len(p.skips)
}

func (p *storedPosting) numBlocks() int          { return len(p.skips) }
func (p *storedPosting) blockFirst(b int) uint32 { return p.skips[b].first }
func (p *storedPosting) noSkipMode() bool        { return p.noSkips }

func (p *storedPosting) blockLen(b int) int {
	if b == len(p.skips)-1 {
		if r := p.n % p.bs; r != 0 {
			return r
		}
	}
	return p.bs
}

// blockExtent returns the payload range of block b.
func (p *storedPosting) blockExtent(b int) (off, length int) {
	off = int(p.skips[b].offset)
	end := p.dataLen
	if b+1 < len(p.skips) {
		end = int(p.skips[b+1].offset)
	}
	return off, end - off
}

func (p *storedPosting) decodeBlock(b int, buf []uint32) []uint32 {
	n := p.blockLen(b)
	out := buf[:n]
	out[0] = p.skips[b].first
	off, length := p.blockExtent(b)
	src := p.fetcher.Fetch(off, length)
	if p.vbTail && b == len(p.skips)-1 {
		vbBlock{}.DecodeBlock(src, out)
	} else {
		p.bc.DecodeBlock(src, out)
	}
	return out
}

func (p *storedPosting) Decompress() []uint32 {
	return p.DecompressAppend(make([]uint32, 0, p.n))
}

// DecompressAppend implements core.Posting; block fetches go
// through the Fetcher exactly as in Decompress.
func (p *storedPosting) DecompressAppend(dst []uint32) []uint32 {
	base := len(dst)
	dst = core.GrowLen(dst, p.n)
	for b := range p.skips {
		lo := base + b*p.bs
		p.decodeBlock(b, dst[lo:lo+p.blockLen(b)])
	}
	return dst
}

// Iterator returns a skipping iterator; block fetches go through the
// Fetcher, so SvS probes fetch only the blocks they touch.
func (p *storedPosting) Iterator() core.Iterator {
	return &listIterator{p: p, block: -1}
}
