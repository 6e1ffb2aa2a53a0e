package index

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/ops"
)

// Impact-annotated postings: the BVIX3 impacts section (v4, v6) and its
// in-memory form. Ranked top-k retrieval scores a document as the sum
// of its quantized per-term impacts; Block-Max pruning additionally
// needs, per term, the maximum impact of every 128-posting block and
// the block's last docid, so the engine can prove a block cannot beat
// the heap threshold without decoding it.
//
// Impacts section layout (little-endian):
//
//	[0, 8×terms)  offset table: per term in dict order, the
//	              section-relative u64 offset of its impact record
//	records, 8-byte aligned, in dict order, tiling the rest exactly:
//	  u32  crc32c over the rest of the record (pre-padding)
//	  u32  block count (= ceil(count / blockLen); 0 for empty terms)
//	  u32  blob length
//	  u8   term max impact
//	  u8   encoding (0 = codec blob, 1 = raw impact bytes)
//	  u16  blockLen (postings per impact block; writer uses 128)
//	  block count × u32  block last docid (strictly increasing)
//	  block count × u8   block max impact (each in [1, term max])
//	  blob, then zero padding to 8-byte alignment
//
// Quantization is saturating-linear: impact = min(freq, 255), floored
// at 1 so every posting contributes (absent frequencies degrade to the
// document-count scorer, 1 per matching term). Encoding 0 stores the
// impacts' cumulative sums — strictly increasing, so any list codec in
// the registry can carry them and gaps recover the impacts — using the
// term's own per-list codec; the writer falls back to encoding 1 (one
// raw byte per posting) whenever the codec blob would not be smaller,
// the term's codec is a bitmap (whose size scales with the cumulative
// universe, not the posting count), or the cumulative sum would
// overflow u32.
//
// The per-record CRC mirrors the payload section's: when the impacts
// section's CRC fails, a degraded open re-verifies record by record
// and quarantines only the terms whose impact bytes no longer
// checksum — their docid postings stay fully served, with ranking
// falling back to frequency-derived impacts.
const (
	impactBlockLen     = 128 // must match intlist.BlockSize for lazy block cursors
	maxImpact          = 255
	impactsRecordFixed = 4 + 4 + 4 + 1 + 1 + 2
	impactEncCodec     = 0 // blob = codec-compressed cumulative impact sums
	impactEncRaw       = 1 // blob = count raw impact bytes
)

// QuantizeImpact maps a stored term frequency to its quantized impact:
// min(freq, 255), floored at 1 so a posting with no recorded frequency
// still scores as a match.
func QuantizeImpact(freq uint16) uint8 {
	switch {
	case freq == 0:
		return 1
	case freq > maxImpact:
		return maxImpact
	default:
		return uint8(freq)
	}
}

// impactMeta is one term's heap-owned impact annotations (never
// aliasing a mapping): the per-posting quantized impacts plus the
// block-max frame.
type impactMeta struct {
	quant     []uint8  // per posting, aligned with the docids
	blockLast []uint32 // last docid of each impact block
	blockMax  []uint8  // max impact within each block
	termMax   uint8
	blockLen  int // postings per block
}

// buildImpactMeta derives impact annotations from decoded docids and
// stored frequencies — the writer's source of truth and the query-time
// fallback for impact-less indexes. A nil/short freqs slice yields
// impact 1 (document-count scoring) for the uncovered postings.
func buildImpactMeta(docs []uint32, freqs []uint16) *impactMeta {
	n := len(docs)
	m := &impactMeta{blockLen: impactBlockLen}
	if n == 0 {
		return m
	}
	nb := (n + impactBlockLen - 1) / impactBlockLen
	m.quant = make([]uint8, n)
	m.blockLast = make([]uint32, nb)
	m.blockMax = make([]uint8, nb)
	for i, d := range docs {
		q := uint8(1)
		if i < len(freqs) {
			q = QuantizeImpact(freqs[i])
		}
		m.quant[i] = q
		b := i / impactBlockLen
		m.blockLast[b] = d
		if q > m.blockMax[b] {
			m.blockMax[b] = q
		}
		if q > m.termMax {
			m.termMax = q
		}
	}
	return m
}

// impactBlob picks the smaller of the two encodings for a term's
// quantized impacts. codecName is the term's per-list codec; only list
// codecs compete (a bitmap's size scales with the cumulative-sum
// universe, which raw bytes always beat).
func impactBlob(m *impactMeta, codecName string) ([]byte, byte) {
	n := len(m.quant)
	if n == 0 {
		return nil, impactEncRaw
	}
	if codecName != "" && uint64(n)*maxImpact < 1<<32 {
		if c, err := codecs.ByName(codecName); err == nil && c.Kind() == core.KindList {
			cum := make([]uint32, n)
			var s uint32
			for i, q := range m.quant {
				s += uint32(q)
				cum[i] = s
			}
			if p, err := c.Compress(cum); err == nil {
				if bm, ok := p.(encoding.BinaryMarshaler); ok {
					if blob, err := bm.MarshalBinary(); err == nil && len(blob) < n {
						return blob, impactEncCodec
					}
				}
			}
		}
	}
	out := make([]byte, n)
	copy(out, m.quant)
	return out, impactEncRaw
}

// appendImpactsRecord encodes one term's impact record (CRC first,
// zero-padded to 8 bytes) onto the impacts section under construction.
func appendImpactsRecord(dst []byte, m *impactMeta, codecName string) []byte {
	blob, enc := impactBlob(m, codecName)
	rec := make([]byte, 0, impactsRecordFixed-4+5*len(m.blockLast)+len(blob))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(m.blockLast)))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(blob)))
	rec = append(rec, m.termMax, enc)
	rec = binary.LittleEndian.AppendUint16(rec, impactBlockLen)
	for _, last := range m.blockLast {
		rec = binary.LittleEndian.AppendUint32(rec, last)
	}
	rec = append(rec, m.blockMax...)
	rec = append(rec, blob...)
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(rec, castagnoli))
	dst = append(dst, rec...)
	for len(dst)%bvix3RecAlign != 0 {
		dst = append(dst, 0)
	}
	return dst
}

// impactsRecord is one parsed, structurally validated impact record.
// The byte slices borrow from the section; materialize copies.
type impactsRecord struct {
	crc        uint32
	blockCount int
	blobLen    int
	termMax    uint8
	encoding   uint8
	blockLen   int
	blockLast  []byte // 4 × blockCount
	blockMax   []byte // blockCount
	blob       []byte
	body       []byte // everything the crc covers
	end        uint64 // section-relative offset past the padded record
}

// parseImpactsRecord reads the impact record at section-relative
// offset off for a term with count postings in a docs-document index,
// re-checking bounds and every structural invariant the pruning
// algorithms rely on: block count consistent with the posting count,
// block last-docids strictly increasing and in range, block maxima in
// [1, termMax] with the term max actually attained.
func parseImpactsRecord(sec []byte, off uint64, count, docs int) (impactsRecord, error) {
	if off%bvix3RecAlign != 0 || off+impactsRecordFixed > uint64(len(sec)) {
		return impactsRecord{}, fmt.Errorf("index: impacts record at %d overruns section", off)
	}
	r := impactsRecord{
		crc:        binary.LittleEndian.Uint32(sec[off:]),
		blockCount: int(binary.LittleEndian.Uint32(sec[off+4:])),
		blobLen:    int(binary.LittleEndian.Uint32(sec[off+8:])),
		termMax:    sec[off+12],
		encoding:   sec[off+13],
		blockLen:   int(binary.LittleEndian.Uint16(sec[off+14:])),
	}
	if r.blockLen < 1 {
		return impactsRecord{}, fmt.Errorf("index: impacts record block length %d invalid", r.blockLen)
	}
	wantBlocks := (count + r.blockLen - 1) / r.blockLen
	if r.blockCount != wantBlocks {
		return impactsRecord{}, fmt.Errorf("index: impacts record declares %d blocks for %d postings (block length %d)", r.blockCount, count, r.blockLen)
	}
	need := uint64(impactsRecordFixed) + 5*uint64(r.blockCount) + uint64(r.blobLen)
	if off+need < off || off+need > uint64(len(sec)) {
		return impactsRecord{}, fmt.Errorf("index: impacts record at %d overruns section", off)
	}
	if r.encoding != impactEncCodec && r.encoding != impactEncRaw {
		return impactsRecord{}, fmt.Errorf("index: impacts record encoding %d unknown", r.encoding)
	}
	if r.encoding == impactEncRaw && r.blobLen != count {
		return impactsRecord{}, fmt.Errorf("index: raw impacts blob is %d bytes for %d postings", r.blobLen, count)
	}
	if (count == 0) != (r.termMax == 0) {
		return impactsRecord{}, fmt.Errorf("index: impacts record term max %d for %d postings", r.termMax, count)
	}
	p := off + impactsRecordFixed
	r.blockLast = sec[p : p+4*uint64(r.blockCount)]
	p += 4 * uint64(r.blockCount)
	r.blockMax = sec[p : p+uint64(r.blockCount)]
	p += uint64(r.blockCount)
	r.blob = sec[p : p+uint64(r.blobLen)]
	r.body = sec[off+4 : off+need]
	r.end = align(off+need, bvix3RecAlign)
	var prev uint32
	attained := uint8(0)
	for i := 0; i < r.blockCount; i++ {
		last := binary.LittleEndian.Uint32(r.blockLast[4*i:])
		if (i > 0 && last <= prev) || uint64(last) >= uint64(docs) {
			return impactsRecord{}, fmt.Errorf("index: impacts record block %d last docid %d out of order or range", i, last)
		}
		prev = last
		bm := r.blockMax[i]
		if bm < 1 || bm > r.termMax {
			return impactsRecord{}, fmt.Errorf("index: impacts record block %d max %d outside [1, %d]", i, bm, r.termMax)
		}
		if bm > attained {
			attained = bm
		}
	}
	if attained != r.termMax {
		return impactsRecord{}, fmt.Errorf("index: impacts record term max %d never attained by a block", r.termMax)
	}
	return r, nil
}

// crcOK re-verifies the record's own checksum — the degraded-open gate
// that makes impacts salvage loss-only.
func (r impactsRecord) crcOK() bool {
	return crc32.Checksum(r.body, castagnoli) == r.crc
}

// impactsRecordFor locates term ordinal i's impact record through the
// offset table, re-checking bounds on every access.
func (g *bvix3Geometry) impactsRecordFor(ordinal, count int) (impactsRecord, error) {
	if end := uint64(8 * (ordinal + 1)); uint64(len(g.impacts)) < end {
		return impactsRecord{}, fmt.Errorf("index: impacts offset table truncated at term %d", ordinal)
	}
	off := binary.LittleEndian.Uint64(g.impacts[8*ordinal:])
	return parseImpactsRecord(g.impacts, off, count, g.docs)
}

// walkImpacts validates the whole impacts section against the (already
// validated) dictionary: the offset table agrees with the records'
// actual layout, every record parses with its structural invariants,
// and records tile the section exactly.
func (g *bvix3Geometry) walkImpacts() error {
	want := uint64(8 * g.terms)
	if uint64(len(g.impacts)) < want {
		return fmt.Errorf("index: impacts offset table needs %d bytes, section has %d", want, len(g.impacts))
	}
	cur := 0
	for i := 0; i < g.terms; i++ {
		rec, err := parseDictRecord(g.dict, cur)
		if err != nil {
			return err // unreachable: walkDict validated the dictionary
		}
		cur = rec.next
		off := binary.LittleEndian.Uint64(g.impacts[8*i:])
		if off != want {
			return fmt.Errorf("index: term %q impacts record at %d, want %d", rec.name, off, want)
		}
		ir, err := parseImpactsRecord(g.impacts, off, rec.count, g.docs)
		if err != nil {
			return fmt.Errorf("index: term %q: %w", rec.name, err)
		}
		want = ir.end
	}
	if want != uint64(len(g.impacts)) {
		return fmt.Errorf("index: %d trailing bytes after last BVIX3 impacts record", uint64(len(g.impacts))-want)
	}
	return nil
}

// materializeImpacts decodes one term's impact annotations into
// heap-owned memory, validating that the decoded impacts agree with
// the record's count and block maxima.
func (g *bvix3Geometry) materializeImpacts(rec dictRecord, ordinal int) (*impactMeta, error) {
	ir, err := g.impactsRecordFor(ordinal, rec.count)
	if err != nil {
		return nil, err
	}
	m := &impactMeta{
		termMax:   ir.termMax,
		blockLen:  ir.blockLen,
		blockLast: make([]uint32, ir.blockCount),
		blockMax:  make([]uint8, ir.blockCount),
	}
	for i := range m.blockLast {
		m.blockLast[i] = binary.LittleEndian.Uint32(ir.blockLast[4*i:])
	}
	copy(m.blockMax, ir.blockMax)
	m.quant = make([]uint8, rec.count)
	if ir.encoding == impactEncRaw {
		copy(m.quant, ir.blob)
	} else {
		p, derr := codecs.Decode(ir.blob)
		if derr != nil {
			return nil, fmt.Errorf("index: term %q impacts blob: %w", rec.name, derr)
		}
		if p.Len() != rec.count {
			return nil, fmt.Errorf("index: term %q impacts blob holds %d values, want %d", rec.name, p.Len(), rec.count)
		}
		var prev uint32
		for i, c := range p.Decompress() {
			d := c - prev
			if d < 1 || d > maxImpact {
				return nil, fmt.Errorf("index: term %q impact %d out of range at posting %d", rec.name, d, i)
			}
			m.quant[i] = uint8(d)
			prev = c
		}
	}
	for i, q := range m.quant {
		if q < 1 || q > m.blockMax[i/ir.blockLen] {
			return nil, fmt.Errorf("index: term %q impact %d at posting %d exceeds its block max", rec.name, q, i)
		}
	}
	return m, nil
}

// termImpactList adapts one term's entry to ops.ImpactList. With a
// block-decoding posting (bd non-nil) the ranking cursor decodes
// lazily, one surviving 128-posting block at a time; otherwise vals
// holds the fully decoded docids and Block slices them.
type termImpactList struct {
	meta *impactMeta
	bd   core.BlockDecoder
	vals []uint32
}

func (l *termImpactList) Len() int        { return len(l.meta.quant) }
func (l *termImpactList) TermMax() uint32 { return uint32(l.meta.termMax) }
func (l *termImpactList) Blocks() ([]uint32, []uint8) {
	return l.meta.blockLast, l.meta.blockMax
}

// Block returns block b's docids — decoded into buf through the block
// decoder, or sliced from vals — and its slice of the stored impacts.
// It is the one place a block is decoded for ranking: the ops cursor
// loads through it, and so does the dense scorer.
func (l *termImpactList) Block(b int, buf []uint32) ([]uint32, []uint8) {
	n := l.meta.blockLen
	imps := l.meta.quant[b*n : min((b+1)*n, len(l.meta.quant))]
	if l.bd == nil {
		return l.vals[b*n : b*n+len(imps)], imps
	}
	if len(buf) < n {
		buf = make([]uint32, n)
	}
	return l.bd.DecodeBlock(b, buf), imps
}

// Decoded reports whether vals holds the list decoded whole.
func (l *termImpactList) Decoded() bool { return l.bd == nil }

// topkLists assembles the per-term impact lists for a ranked query.
// Terms carrying stored impact annotations over a block-frame posting
// get lazy block cursors; everything else (bitmap-compressed lists,
// impact-less indexes and files) falls back to decoded postings —
// cache-served when hot — with impacts taken from the stored
// annotations or derived on the fly from the frequencies. A mapped
// term's frequencies are decoded only when it has no stored impacts.
func (idx *Index) topkLists(terms []string) []ops.ImpactList {
	var lists []ops.ImpactList
	for _, t := range terms {
		e, ok := idx.term(t)
		if !ok || e.posting.Len() == 0 {
			continue // disjunctive scoring: missing terms just contribute nothing
		}
		if m := e.storedImpacts(); m != nil {
			if bd, ok := e.posting.(core.BlockDecoder); ok &&
				bd.BlockSpan() == m.blockLen &&
				bd.NumBlocks() == len(m.blockLast) {
				lists = append(lists, &termImpactList{meta: m, bd: bd})
				continue
			}
			lists = append(lists, &termImpactList{meta: m, vals: idx.DecodedPostings(t)})
			continue
		}
		vals := idx.DecodedPostings(t)
		lists = append(lists, &termImpactList{meta: buildImpactMeta(vals, e.frequencies()), vals: vals})
	}
	return lists
}
