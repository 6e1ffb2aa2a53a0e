package bitmap

import (
	"encoding/binary"
	"fmt"

	"repro/internal/core"
	"repro/internal/kernels"
)

// Roaring+Run serialization mirrors Roaring's layout with a third
// container kind: key u16, kind u8 (0 array / 1 bitmap / 2 runs),
// cardinality u32, payload (u16 values / 1024 u64 words / run count u32
// + [start u16, last u16] pairs).

// MarshalBinary implements encoding.BinaryMarshaler.
func (p *roaringRunPosting) MarshalBinary() ([]byte, error) {
	dst := core.PutHeader(nil, core.TagRoaringRun, p.n)
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
		case *runContainer:
			dst = append(dst, 2)
			dst = binary.LittleEndian.AppendUint32(dst, uint32(cc.n))
			dst = binary.LittleEndian.AppendUint32(dst, uint32(len(cc.runs)))
			for _, r := range cc.runs {
				dst = binary.LittleEndian.AppendUint16(dst, r.start)
				dst = binary.LittleEndian.AppendUint16(dst, r.last)
			}
		}
	}
	return dst, nil
}

// Decode implements core.Decoder.
func (RoaringRun) Decode(data []byte) (core.Posting, error) {
	n, rest, err := core.GetHeader(data, core.TagRoaringRun)
	if err != nil {
		return nil, err
	}
	if len(rest) < 4 {
		return nil, core.ErrBadFormat
	}
	nc := int(binary.LittleEndian.Uint32(rest))
	rest = rest[4:]
	p := &roaringRunPosting{n: n}
	for i := 0; i < nc; i++ {
		if len(rest) < 7 {
			return nil, fmt.Errorf("%w: truncated Roaring+Run container", core.ErrBadFormat)
		}
		key := binary.LittleEndian.Uint16(rest)
		kind := rest[2]
		card := int(binary.LittleEndian.Uint32(rest[3:]))
		rest = rest[7:]
		switch kind {
		case 0:
			if len(rest) < 2*card {
				return nil, fmt.Errorf("%w: truncated array container", core.ErrBadFormat)
			}
			c := make(arrayContainer, card)
			for k := range c {
				c[k] = binary.LittleEndian.Uint16(rest[2*k:])
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
		case 2:
			if len(rest) < 4 {
				return nil, fmt.Errorf("%w: truncated run container", core.ErrBadFormat)
			}
			nr := int(binary.LittleEndian.Uint32(rest))
			rest = rest[4:]
			if len(rest) < 4*nr {
				return nil, fmt.Errorf("%w: truncated run list", core.ErrBadFormat)
			}
			c := &runContainer{n: card, runs: make([]interval, nr)}
			covered := 0
			for k := range c.runs {
				c.runs[k].start = binary.LittleEndian.Uint16(rest[4*k:])
				c.runs[k].last = binary.LittleEndian.Uint16(rest[4*k+2:])
				if c.runs[k].last < c.runs[k].start {
					return nil, fmt.Errorf("%w: inverted run interval", core.ErrBadFormat)
				}
				covered += int(c.runs[k].last-c.runs[k].start) + 1
			}
			// Like the bitmap popcount check: the declared cardinality
			// must match the bytes, not be taken on faith.
			if covered != card {
				return nil, fmt.Errorf("%w: run container cardinality mismatch", core.ErrBadFormat)
			}
			rest = rest[4*nr:]
			p.cs = append(p.cs, c)
		default:
			return nil, fmt.Errorf("%w: container kind %d", core.ErrBadFormat, kind)
		}
		p.keys = append(p.keys, key)
	}
	if err := core.CheckEnd(rest); err != nil {
		return nil, err
	}
	// As in Roaring.Decode: the header count must match the
	// byte-bounded container total before it sizes any buffer.
	total := 0
	for _, c := range p.cs {
		total += c.card()
	}
	if total != n {
		return nil, fmt.Errorf("%w: Roaring+Run header declares %d values, containers hold %d", core.ErrBadFormat, n, total)
	}
	if err := core.VerifyDecompress(p); err != nil {
		return nil, err
	}
	return p, nil
}
