package intlist

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
)

// Binary serialization for the list representations. Layouts (after the
// standard tag+cardinality header, little-endian):
//
//	RawList  u32 values
//	Blocked  inner codec name (u8 length + bytes), flags u8 (bit 0 =
//	         no-skips), block size u8, skip count u32, skips (offset u32
//	         + first u32), payload length u32 + bytes
//	PEF      partition count u32, partitions (base u32, l u8, count u16,
//	         lowOff u64, highOff u64, highEnd u64), low/high bit arrays
//	         (bit length u64 + u64 words each)

// --- RawList ---

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *rawPosting) MarshalBinary() ([]byte, error) {
	dst := core.PutHeader(nil, core.TagRawList, len(p.values))
	for _, v := range p.values {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst, nil
}

// Decode implements core.Decoder.
func (RawList) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagRawList)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4*n {
		return nil, fmt.Errorf("%w: truncated raw list", core.ErrBadFormat)
	}
	if err := core.CheckEnd(rest[4*n:]); err != nil {
		return nil, err
	}
	p := &rawPosting{values: make([]uint32, n)}
	for i := range p.values {
		p.values[i] = binary.LittleEndian.Uint32(rest[4*i:])
	}
	if err := core.VerifyDecompress(p); err != nil {
		return nil, err
	}
	return p, nil
}

// --- Blocked frame (covers 12 of the codecs) ---

// blockCodecByName reconstructs the inner block codec from its name.
func blockCodecByName(name string) (BlockCodec, error) {
	for _, bc := range []BlockCodec{
		VBBlock(), GroupVBBlock(),
		simpleBlock{name: "Simple9", cases: simple9Cases},
		simpleBlock{name: "Simple16", cases: simple16Cases},
		Simple8bBlock(), PforDeltaBlock(), PforDeltaStarBlock(),
		newPFDBlock{}, optPFDBlock{}, simdBP128Block{}, simdBP128StarBlock{},
		SIMDPforDeltaBlock(), SIMDPforDeltaStarBlock(),
	} {
		if bc.Name() == name {
			return bc, nil
		}
	}
	return nil, fmt.Errorf("%w: unknown block codec %q", core.ErrBadFormat, name)
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *listPosting) MarshalBinary() ([]byte, error) {
	name := p.bc.Name()
	dst := core.PutHeader(nil, core.TagBlocked, p.n)
	dst = append(dst, byte(len(name)))
	dst = append(dst, name...)
	flags := byte(0)
	if p.noSkips {
		flags |= 1
	}
	dst = append(dst, flags, byte(p.bs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.skips)))
	for _, s := range p.skips {
		dst = binary.LittleEndian.AppendUint32(dst, s.offset)
		dst = binary.LittleEndian.AppendUint32(dst, s.first)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.data)))
	return append(dst, p.data...), nil
}

// Decode implements core.Decoder. The Blocked value's own inner codec
// is ignored; the stored name wins, so any Blocked instance can decode
// any framed posting.
func (Blocked) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagBlocked)
	if err != nil {
		return nil, err
	}
	if len(rest) < 1 {
		return nil, core.ErrBadFormat
	}
	nameLen := int(rest[0])
	rest = rest[1:]
	if len(rest) < nameLen+6 {
		return nil, fmt.Errorf("%w: truncated Blocked header", core.ErrBadFormat)
	}
	bc, err := blockCodecByName(string(rest[:nameLen]))
	if err != nil {
		return nil, err
	}
	rest = rest[nameLen:]
	flags := rest[0]
	bs := int(rest[1])
	if bs < 2 || bs > BlockSize {
		return nil, fmt.Errorf("%w: block size %d", core.ErrBadFormat, bs)
	}
	skipCount := int(binary.LittleEndian.Uint32(rest[2:]))
	rest = rest[6:]
	if len(rest) < 8*skipCount+4 {
		return nil, fmt.Errorf("%w: truncated skip array", core.ErrBadFormat)
	}
	p := &listPosting{bc: bc, n: n, noSkips: flags&1 != 0, bs: bs}
	p.skips = make([]skipEntry, skipCount)
	for i := range p.skips {
		p.skips[i].offset = binary.LittleEndian.Uint32(rest[8*i:])
		p.skips[i].first = binary.LittleEndian.Uint32(rest[8*i+4:])
	}
	rest = rest[8*skipCount:]
	dataLen := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	if len(rest) < dataLen {
		return nil, fmt.Errorf("%w: truncated Blocked payload", core.ErrBadFormat)
	}
	if err := core.CheckEnd(rest[dataLen:]); err != nil {
		return nil, err
	}
	p.data = make([]byte, dataLen)
	copy(p.data, rest)
	if err := p.validate(); err != nil {
		return nil, err
	}
	if err := core.VerifyDecompress(p); err != nil {
		return nil, err
	}
	return p, nil
}

// validate checks structural consistency of a deserialized frame so
// later decoding cannot index out of bounds.
func (p *listPosting) validate() error {
	wantSkips := (p.n + p.bs - 1) / p.bs
	if len(p.skips) != wantSkips {
		return fmt.Errorf("%w: %d skip entries for %d values", core.ErrBadFormat, len(p.skips), p.n)
	}
	for i, s := range p.skips {
		if int(s.offset) > len(p.data) {
			return fmt.Errorf("%w: skip %d offset out of range", core.ErrBadFormat, i)
		}
		if i > 0 && (s.offset < p.skips[i-1].offset || s.first <= p.skips[i-1].first) {
			return fmt.Errorf("%w: skip %d not monotonic", core.ErrBadFormat, i)
		}
	}
	return nil
}

// --- PEF ---

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *pefPosting) MarshalBinary() ([]byte, error) {
	dst := core.PutHeader(nil, core.TagPEF, p.n)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(p.parts)))
	for _, pp := range p.parts {
		dst = binary.LittleEndian.AppendUint32(dst, pp.base)
		dst = append(dst, pp.l)
		dst = binary.LittleEndian.AppendUint16(dst, uint16(pp.count))
		dst = binary.LittleEndian.AppendUint64(dst, pp.lowOff)
		dst = binary.LittleEndian.AppendUint64(dst, pp.highOff)
		dst = binary.LittleEndian.AppendUint64(dst, pp.highEnd)
	}
	dst = appendBitArray(dst, p.lowBits, p.low)
	dst = appendBitArray(dst, p.highBits, p.high)
	return dst, nil
}

func appendBitArray(dst []byte, nbits uint64, words []uint64) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, nbits)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(words)))
	for _, w := range words {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Decode implements core.Decoder.
func (PEF) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagPEF)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, core.ErrBadFormat
	}
	np := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	const partSize = 4 + 1 + 2 + 8 + 8 + 8
	if len(rest) < np*partSize {
		return nil, fmt.Errorf("%w: truncated PEF directory", core.ErrBadFormat)
	}
	p := &pefPosting{n: n, parts: make([]pefPart, np)}
	for i := range p.parts {
		off := i * partSize
		p.parts[i] = pefPart{
			base:    binary.LittleEndian.Uint32(rest[off:]),
			l:       rest[off+4],
			count:   int(binary.LittleEndian.Uint16(rest[off+5:])),
			lowOff:  binary.LittleEndian.Uint64(rest[off+7:]),
			highOff: binary.LittleEndian.Uint64(rest[off+15:]),
			highEnd: binary.LittleEndian.Uint64(rest[off+23:]),
		}
	}
	rest = rest[np*partSize:]
	p.lowBits, p.low, rest, err = readBitArray(rest)
	if err != nil {
		return nil, err
	}
	p.highBits, p.high, rest, err = readBitArray(rest)
	if err != nil {
		return nil, err
	}
	if err := core.CheckEnd(rest); err != nil {
		return nil, err
	}
	// Bounds-check the directory against the arrays, and the header
	// count against the directory total — VerifyDecompress sizes its
	// buffer from the header count, so a lying header must be caught
	// before it can force an outsized allocation.
	total := 0
	for i, pp := range p.parts {
		if pp.highEnd > p.highBits || pp.highOff > pp.highEnd {
			return nil, fmt.Errorf("%w: PEF partition %d out of range", core.ErrBadFormat, i)
		}
		if uint64(pp.count)*uint64(pp.l)+pp.lowOff > p.lowBits {
			return nil, fmt.Errorf("%w: PEF partition %d low bits out of range", core.ErrBadFormat, i)
		}
		total += pp.count
	}
	if total != n {
		return nil, fmt.Errorf("%w: PEF header declares %d values, partitions hold %d", core.ErrBadFormat, n, total)
	}
	if err := core.VerifyDecompress(p); err != nil {
		return nil, err
	}
	return p, nil
}

func readBitArray(data []byte) (nbits uint64, words []uint64, rest []byte, err error) {
	if len(data) < 12 {
		return 0, nil, nil, core.ErrBadFormat
	}
	nbits = binary.LittleEndian.Uint64(data)
	nw := int(binary.LittleEndian.Uint32(data[8:]))
	data = data[12:]
	if len(data) < 8*nw {
		return 0, nil, nil, fmt.Errorf("%w: truncated bit array", core.ErrBadFormat)
	}
	if nbits > uint64(nw)*64 {
		return 0, nil, nil, fmt.Errorf("%w: bit length overruns words", core.ErrBadFormat)
	}
	words = make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	return nbits, words, data[8*nw:], nil
}
