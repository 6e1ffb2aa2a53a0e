package bitmap

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/core"
	"repro/internal/kernels"
)

// Binary serialization for the nine bitmap codecs. Layouts (after the
// standard tag+cardinality header, everything little-endian):
//
//	Bitset                word count u32, then u64 words
//	WAH/EWAH/CONCISE/PLWAH word count u32, then u32 words
//	SBH/BBC               byte count u32, then raw bytes
//	VALWAH                segment u8, bit length u64, word count u32, u64 words
//	Roaring               container count u32, then per container:
//	                      key u16, kind u8 (0 array / 1 bitmap),
//	                      cardinality u32, payload (u16s or 1024 u64s)

func appendU32s(dst []byte, words []uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(words)))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint32(dst, w)
	}
	return dst
}

func readU32s(data []byte) ([]uint32, []byte, error) {
	if len(data) < 4 {
		return nil, nil, core.ErrBadFormat
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < 4*n {
		return nil, nil, fmt.Errorf("%w: truncated u32 array", core.ErrBadFormat)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(data[4*i:])
	}
	return out, data[4*n:], nil
}

func appendU64s(dst []byte, words []uint64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(words)))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

func readU64s(data []byte) ([]uint64, []byte, error) {
	if len(data) < 4 {
		return nil, nil, core.ErrBadFormat
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < 8*n {
		return nil, nil, fmt.Errorf("%w: truncated u64 array", core.ErrBadFormat)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return out, data[8*n:], nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...)
}

func readBytes(data []byte) ([]byte, []byte, error) {
	if len(data) < 4 {
		return nil, nil, core.ErrBadFormat
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	if len(data) < n {
		return nil, nil, fmt.Errorf("%w: truncated byte array", core.ErrBadFormat)
	}
	out := make([]byte, n)
	copy(out, data)
	return out, data[n:], nil
}

// verifySpans validates a decoded RLE bitmap without materializing it:
// the span stream must contain exactly n one-bits and stay inside the
// 2^32 position space. Spans are emitted in increasing position order
// by construction, so this implies a valid sorted set.
func verifySpans(r spanReader, n int) error {
	var pos, ones uint64
	const maxPos = uint64(1) << 32
	for {
		s, ok := r.next()
		if !ok {
			break
		}
		switch s.kind {
		case oneFill:
			ones += s.n
		case literalSpan:
			ones += uint64(bits.OnesCount64(s.word))
		}
		pos += s.n
		if pos > maxPos || ones > uint64(n) {
			return fmt.Errorf("%w: bitmap payload inconsistent with cardinality %d", core.ErrBadFormat, n)
		}
	}
	if ones != uint64(n) {
		return fmt.Errorf("%w: bitmap has %d bits set, header says %d", core.ErrBadFormat, ones, n)
	}
	return nil
}

// --- Bitset ---

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *bitsetPosting) MarshalBinary() ([]byte, error) {
	return appendU64s(core.PutHeader(nil, core.TagBitset, p.n), p.words), nil
}

// Decode implements core.Decoder.
func (Bitset) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagBitset)
	if err != nil {
		return nil, err
	}
	words, tail, err := readU64s(rest)
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(tail); err != nil {
		return nil, err
	}
	// A popcount over the words validates the payload against the header
	// without materializing the list the way core.VerifyDecompress would:
	// set bits are sorted by construction, so cardinality is the only
	// degree of freedom left. The length bound keeps every position
	// inside the 32-bit value space (2^32 bits = 2^26 words).
	if len(words) > 1<<26 {
		return nil, fmt.Errorf("%w: bitset payload overruns 32-bit position space", core.ErrBadFormat)
	}
	if got := kernels.PopcountWords(words); got != n {
		return nil, fmt.Errorf("%w: bitset has %d bits set, header says %d", core.ErrBadFormat, got, n)
	}
	return &bitsetPosting{words: words, n: n}, nil
}

// --- word-aligned RLE codecs ---

func (p *wahPosting) MarshalBinary() ([]byte, error) {
	return appendU32s(core.PutHeader(nil, core.TagWAH, p.n), p.words), nil
}

// Decode implements core.Decoder.
func (WAH) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagWAH)
	if err != nil {
		return nil, err
	}
	words, tail, err := readU32s(rest)
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(tail); err != nil {
		return nil, err
	}
	p := &wahPosting{words: words, n: n}
	if err := verifySpans(p.spans(), n); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *ewahPosting) MarshalBinary() ([]byte, error) {
	return appendU32s(core.PutHeader(nil, core.TagEWAH, p.n), p.words), nil
}

// Decode implements core.Decoder.
func (EWAH) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagEWAH)
	if err != nil {
		return nil, err
	}
	words, tail, err := readU32s(rest)
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(tail); err != nil {
		return nil, err
	}
	// Every marker's literal count must fit in the words after it, or
	// the span reader would index past the end.
	for i := 0; i < len(words); i += 1 + int(words[i]>>17) {
		if int(words[i]>>17) > len(words)-i-1 {
			return nil, fmt.Errorf("%w: EWAH marker owes more literals than remain", core.ErrBadFormat)
		}
	}
	p := &ewahPosting{words: words, n: n}
	if err := verifySpans(p.spans(), n); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *concisePosting) MarshalBinary() ([]byte, error) {
	return appendU32s(core.PutHeader(nil, core.TagCONCISE, p.n), p.words), nil
}

// Decode implements core.Decoder.
func (CONCISE) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagCONCISE)
	if err != nil {
		return nil, err
	}
	words, tail, err := readU32s(rest)
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(tail); err != nil {
		return nil, err
	}
	p := &concisePosting{words: words, n: n}
	if err := verifySpans(p.spans(), n); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *plwahPosting) MarshalBinary() ([]byte, error) {
	return appendU32s(core.PutHeader(nil, core.TagPLWAH, p.n), p.words), nil
}

// Decode implements core.Decoder.
func (PLWAH) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagPLWAH)
	if err != nil {
		return nil, err
	}
	words, tail, err := readU32s(rest)
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(tail); err != nil {
		return nil, err
	}
	p := &plwahPosting{words: words, n: n}
	if err := verifySpans(p.spans(), n); err != nil {
		return nil, err
	}
	return p, nil
}

// --- byte-aligned codecs ---

func (p *sbhPosting) MarshalBinary() ([]byte, error) {
	return appendBytes(core.PutHeader(nil, core.TagSBH, p.n), p.data), nil
}

// Decode implements core.Decoder.
func (SBH) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagSBH)
	if err != nil {
		return nil, err
	}
	b, tail, err := readBytes(rest)
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(tail); err != nil {
		return nil, err
	}
	p := &sbhPosting{data: b, n: n}
	if err := verifySpans(p.spans(), n); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *bbcPosting) MarshalBinary() ([]byte, error) {
	return appendBytes(core.PutHeader(nil, core.TagBBC, p.n), p.data), nil
}

// Decode implements core.Decoder.
func (BBC) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagBBC)
	if err != nil {
		return nil, err
	}
	b, tail, err := readBytes(rest)
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(tail); err != nil {
		return nil, err
	}
	p := &bbcPosting{data: b, n: n}
	if err := verifySpans(p.spans(), n); err != nil {
		return nil, err
	}
	return p, nil
}

// --- VALWAH ---

func (p *valwahPosting) MarshalBinary() ([]byte, error) {
	dst := core.PutHeader(nil, core.TagVALWAH, p.n)
	dst = append(dst, byte(p.seg))
	dst = binary.LittleEndian.AppendUint64(dst, p.nbits)
	return appendU64s(dst, p.bits), nil
}

// Decode implements core.Decoder.
func (VALWAH) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagVALWAH)
	if err != nil {
		return nil, err
	}
	if len(rest) < 9 {
		return nil, core.ErrBadFormat
	}
	seg := uint32(rest[0])
	nbits := binary.LittleEndian.Uint64(rest[1:])
	words, tail, err := readU64s(rest[9:])
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(tail); err != nil {
		return nil, err
	}
	if seg != 7 && seg != 14 && seg != 28 {
		return nil, fmt.Errorf("%w: VALWAH segment %d", core.ErrBadFormat, seg)
	}
	if nbits > uint64(len(words))*64 {
		return nil, fmt.Errorf("%w: VALWAH bit length overruns payload", core.ErrBadFormat)
	}
	p := &valwahPosting{bits: words, nbits: nbits, n: n, seg: seg}
	if err := verifySpans(p.spans(), n); err != nil {
		return nil, err
	}
	return p, nil
}

// --- Roaring ---

func (p *roaringPosting) MarshalBinary() ([]byte, error) {
	// A 9-byte header, then 7 bytes of metadata per container before
	// its payload; SizeBytes counts the payloads and 4 of those 7.
	dst := core.PutHeader(make([]byte, 0, 9+3*len(p.cs)+p.SizeBytes()), core.TagRoaring, p.n)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.cs)))
	for i, c := range p.cs {
		dst = binary.LittleEndian.AppendUint16(dst, p.keys[i])
		switch cc := c.(type) {
		case arrayContainer:
			dst = append(dst, 0)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cc)))
			for _, v := range cc {
				dst = binary.LittleEndian.AppendUint16(dst, v)
			}
		case *bitmapContainer:
			dst = append(dst, 1)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(cc.n))
			for _, w := range cc.words {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
		}
	}
	return dst, nil
}

// MarshalRoaringWords returns the set held in words — bit i standing
// for value base+i, base a multiple of 2^16 — as the MarshalBinary bytes
// of its Roaring posting, byte for byte what Roaring{}.Compress of the
// set's values marshals to. It builds the containers from the words,
// 1024 words (one bucket) at a time, by Compress's own rule: a bucket
// holding more than 4096 values is copied as a bitmap container, any
// other non-empty one is extracted as an array. No value list is made.
func MarshalRoaringWords(words []uint64, base uint32) []byte {
	const bucketWords = 1 << 10
	cards := make([]int, (len(words)+bucketWords-1)/bucketWords)
	n, size := 0, 9
	for b := range cards {
		c := kernels.PopcountWords(words[b*bucketWords : min((b+1)*bucketWords, len(words))])
		cards[b], n = c, n+c
		switch {
		case c > roaringArrayMax:
			size += 7 + 8*bucketWords
		case c > 0:
			size += 7 + 2*c
		}
	}
	dst := core.PutHeader(make([]byte, 0, size), core.TagRoaring, n)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // container count, set below
	nc := 0
	for b, c := range cards {
		if c == 0 {
			continue
		}
		nc++
		bucket := words[b*bucketWords : min((b+1)*bucketWords, len(words))]
		dst = binary.LittleEndian.AppendUint16(dst, uint16(base>>16)+uint16(b))
		if c > roaringArrayMax {
			dst = append(dst, 1)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
			for _, w := range bucket {
				dst = binary.LittleEndian.AppendUint64(dst, w)
			}
			dst = append(dst, make([]byte, 8*(bucketWords-len(bucket)))...)
			continue
		}
		dst = append(dst, 0)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
		for i, w := range bucket {
			for ; w != 0; w &= w - 1 {
				dst = binary.LittleEndian.AppendUint16(dst, uint16(i<<6|bits.TrailingZeros64(w)))
			}
		}
	}
	binary.LittleEndian.PutUint32(dst[5:], uint32(nc))
	return dst
}

// Decode implements core.Decoder.
func (Roaring) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagRoaring)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, core.ErrBadFormat
	}
	nc := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	p := &roaringPosting{n: n}
	for i := 0; i < nc; i++ {
		if len(rest) < 7 {
			return nil, fmt.Errorf("%w: truncated Roaring container", core.ErrBadFormat)
		}
		key := binary.LittleEndian.Uint16(rest)
		kind := rest[2]
		card := int(binary.LittleEndian.Uint32(rest[3:]))
		rest = rest[7:]
		if i > 0 && key <= p.keys[i-1] {
			return nil, fmt.Errorf("%w: Roaring container keys not increasing", core.ErrBadFormat)
		}
		switch kind {
		case 0:
			if len(rest) < 2*card {
				return nil, fmt.Errorf("%w: truncated array container", core.ErrBadFormat)
			}
			c := make(arrayContainer, card)
			for k := range c {
				c[k] = binary.LittleEndian.Uint16(rest[2*k:])
				if k > 0 && c[k] <= c[k-1] {
					return nil, fmt.Errorf("%w: array container values not increasing", core.ErrBadFormat)
				}
			}
			rest = rest[2*card:]
			p.cs = append(p.cs, c)
		case 1:
			if len(rest) < 8192 {
				return nil, fmt.Errorf("%w: truncated bitmap container", core.ErrBadFormat)
			}
			c := &bitmapContainer{n: card}
			for k := range c.words {
				c.words[k] = binary.LittleEndian.Uint64(rest[8*k:])
			}
			// card drives container-level size/merge decisions, so it must
			// match the payload even when the grand total happens to add up.
			if kernels.PopcountWords(c.words[:]) != card {
				return nil, fmt.Errorf("%w: bitmap container cardinality mismatch", core.ErrBadFormat)
			}
			rest = rest[8192:]
			p.cs = append(p.cs, c)
		default:
			return nil, fmt.Errorf("%w: container kind %d", core.ErrBadFormat, kind)
		}
		p.keys = append(p.keys, key)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the last Roaring container", core.ErrBadFormat, len(rest))
	}
	// The header count must equal the byte-bounded container total.
	// With the keys increasing, every array container increasing and
	// every bitmap container's count its popcount, that proves what
	// core.VerifyDecompress would check by decoding: the posting
	// decompresses to exactly n strictly increasing values.
	total := 0
	for _, c := range p.cs {
		total += c.card()
	}
	if total != n {
		return nil, fmt.Errorf("%w: Roaring header declares %d values, containers hold %d", core.ErrBadFormat, n, total)
	}
	return p, nil
}
