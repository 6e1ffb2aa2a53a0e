package index

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/index/mapfile"
)

// BVIX3 is the serving-oriented on-disk index format: section-aligned,
// length-prefixed, CRC-checked segments laid out so a file can be
// opened zero-copy from an mmap and queried before any posting is
// decoded. Version 3 files carry three sections (dict, frames,
// payload); version 4 files append an optional fourth — the impacts
// section — carrying quantized ranking impacts and per-block maxima
// for Block-Max pruning. Impact-less writes stay byte-identical to
// version 3, and readers accept both.
//
// File layout (little-endian throughout; S = section count, 3 or 4):
//
//	[0,5)    magic "BVIX3"
//	[5]      format version (3 = no impacts, 4 = impacts section)
//	[6,8)    zero padding
//	[8,12)   document count u32
//	[12,16)  term count u32
//	[16,20)  skip-frame length u32 (terms per frame; writer uses 64)
//	[20,24)  section count u32 (3 for v3, 4 for v4)
//	[24,24+20S)   section table: S × { off u64, len u64, crc32c u32 }
//	              in file order dict, frames, payload[, impacts];
//	              offsets absolute
//	[24+20S,+4)   crc32c over bytes [5,24+20S) — the header checksum
//	[…,128)       zero padding to the 64-byte-aligned dict section
//
// Sections, each 64-byte aligned with zero padding between them:
//
//	dict:    per term, sorted by name: nameLen u16, name bytes,
//	         posting count u32, payload offset u64 (relative to the
//	         payload section), posting blob length u32, payload record
//	         CRC32-C u32 (over the blob plus frequency bytes), codec
//	         byte u8 (v3; the registry ID of the posting's codec per
//	         codecs.IDByName, 0 = unspecified — the adaptive builder's
//	         per-term selection persisted without decoding a blob).
//	         The per-record CRC is what makes degraded-mode salvage
//	         sound: when the payload section's CRC fails, a term is
//	         served only if its own record still checksums — corrupt
//	         bytes that would decode "cleanly" into plausible garbage
//	         are quarantined instead of served. Codec bytes above
//	         codecs.MaxID are rejected (core.ErrBadFormat in strict
//	         opens, quarantine in degraded ones); a non-zero byte must
//	         also match the blob it describes, checked at materialize
//	         time.
//	frames:  one u64 per skip frame — the dict-relative offset of the
//	         frame's first record. Lookup binary-searches the frames on
//	         their first term (read zero-copy out of the dict) and
//	         scans at most frameLen records, so no per-term table is
//	         ever materialized on the heap.
//	payload: per term, in dict order and 8-byte aligned: the posting's
//	         self-describing compressed blob, then the u16 frequency
//	         payload (2 × count bytes). Records tile the section
//	         exactly — open re-derives every record boundary and
//	         rejects files whose dict disagrees with the payload.
//	impacts: (v4 only) a per-term u64 offset table (term count × 8
//	         bytes, dict order, impacts-section-relative), then one
//	         8-byte-aligned impact record per term tiling the rest of
//	         the section. See impacts.go for the record layout, the
//	         quantization scheme, and the per-record CRC that makes
//	         degraded opens quarantine a corrupt impacts section
//	         without losing the docid postings.
//
// Every byte of the file is covered by a check: the magic by equality,
// the header by its CRC, each section by its table CRC, and all
// padding by an explicit zeros check. A single flipped bit anywhere
// surfaces as an error (core.ErrChecksum for CRC-covered ranges).
const (
	bvix3Version        = 3   // v2 added per-record payload CRCs; v3 the codec byte
	bvix3VersionImpacts = 4   // v4 added the optional impacts section
	bvix3HeaderSize     = 88  // v3 header: 24 + 3×20 + 4
	bvix3DataStart      = 128 // first section offset: align64 of either header size
	bvix3Align          = 64
	bvix3RecAlign       = 8
	bvix3FrameLen       = 64
	// bvix3RecordFixed is a dict record's size net of the name bytes:
	// name length u16, count u32, payload offset u64, blob length u32,
	// payload record CRC u32, codec byte u8.
	bvix3RecordFixed = 2 + 4 + 8 + 4 + 4 + 1
)

// bvix3HeaderSizeFor is the byte size of the header (magic through
// header CRC) for a given section count.
func bvix3HeaderSizeFor(sections int) int { return 24 + sections*20 + 4 }

var bvix3Magic = []byte("BVIX3")

func align(n, a uint64) uint64 { return (n + a - 1) &^ (a - 1) }

// WriteTo implements io.WriterTo: it serializes the index in the BVIX3
// format (version 3, no impacts section — byte-identical to what
// previous builds wrote). Output depends only on index contents: a
// parallel build writes byte-identical files to a serial one. Lazily
// opened indexes are materialized in full (every posting decoded, then
// re-marshaled), so WriteTo also rewrites a v4 or salvaged file as v3.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	return idx.writeBVIX3(w, false)
}

// WriteBVIX3Impacts serializes the index as BVIX3 version 4: the three
// v3 sections plus the impacts section (quantized ranking impacts and
// block-max metadata). Impacts are recomputed deterministically from
// the stored frequencies, so converting any readable index — including
// impact-less v3 files — produces a fully impact-annotated one.
func (idx *Index) WriteBVIX3Impacts(w io.Writer) (int64, error) {
	return idx.writeBVIX3(w, true)
}

func (idx *Index) writeBVIX3(w io.Writer, withImpacts bool) (int64, error) {
	names, entries, err := idx.sortedEntries()
	if err != nil {
		return 0, err
	}
	bw := bvix3Writer{withImpacts: withImpacts}
	for i, name := range names {
		if err := bw.add(name, entries[i]); err != nil {
			return 0, err
		}
	}
	return bw.writeTo(w, idx.Docs())
}

// bvix3Writer is the one BVIX3 encoder. Terms arrive one at a time in
// strictly increasing name order and are encoded straight into the
// section buffers; writeTo then emits the header and the sections.
// WriteTo feeds it an index's entries, and compaction feeds it each
// merged term as soon as the term is merged, so a compaction never
// holds more than one term's postings beside the encoded output.
type bvix3Writer struct {
	withImpacts bool
	terms       int
	dict        []byte
	frames      []byte
	payload     []byte
	// impactOffs holds each term's impact record offset relative to the
	// first record; writeTo rebases them past the offset table, whose
	// size is known only once the last term has arrived.
	impactOffs []uint64
	impacts    []byte
}

// add encodes one term.
func (bw *bvix3Writer) add(name string, e termEntry) error {
	if bw.terms%bvix3FrameLen == 0 {
		bw.frames = binary.LittleEndian.AppendUint64(bw.frames, uint64(len(bw.dict)))
	}
	blob, err := e.posting.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return fmt.Errorf("index: term %q: %w", name, err)
	}
	for len(bw.payload)%bvix3RecAlign != 0 {
		bw.payload = append(bw.payload, 0)
	}
	payOff := uint64(len(bw.payload))
	bw.payload = append(bw.payload, blob...)
	for _, f := range e.freqs {
		bw.payload = binary.LittleEndian.AppendUint16(bw.payload, f)
	}
	bw.dict = binary.LittleEndian.AppendUint16(bw.dict, uint16(len(name)))
	bw.dict = append(bw.dict, name...)
	bw.dict = binary.LittleEndian.AppendUint32(bw.dict, uint32(len(e.freqs)))
	bw.dict = binary.LittleEndian.AppendUint64(bw.dict, payOff)
	bw.dict = binary.LittleEndian.AppendUint32(bw.dict, uint32(len(blob)))
	bw.dict = binary.LittleEndian.AppendUint32(bw.dict, crc32.Checksum(bw.payload[payOff:], castagnoli))
	bw.dict = append(bw.dict, codecByteFor(e, blob))
	if bw.withImpacts {
		// Records are 8-aligned and the offset table is 8 bytes a term,
		// so rebasing past the table keeps every record's alignment.
		bw.impactOffs = append(bw.impactOffs, uint64(len(bw.impacts)))
		meta := buildImpactMeta(e.posting.Decompress(), e.freqs)
		bw.impacts = appendImpactsRecord(bw.impacts, meta, e.codec)
	}
	bw.terms++
	return nil
}

// writeTo emits the header and every section for an index over docs
// documents, one Write per header, padding run, and section.
func (bw *bvix3Writer) writeTo(w io.Writer, docs int) (int64, error) {
	version := byte(bvix3Version)
	secs := [][]byte{bw.dict, bw.frames, bw.payload}
	if bw.withImpacts {
		version = bvix3VersionImpacts
		table := make([]byte, 0, 8*bw.terms+len(bw.impacts))
		for _, off := range bw.impactOffs {
			table = binary.LittleEndian.AppendUint64(table, uint64(8*bw.terms)+off)
		}
		secs = append(secs, append(table, bw.impacts...))
	}
	offs := make([]uint64, len(secs))
	off := uint64(bvix3DataStart)
	for i, sec := range secs {
		offs[i] = off
		off = align(off+uint64(len(sec)), bvix3Align)
	}

	hdr := make([]byte, 0, bvix3HeaderSizeFor(len(secs)))
	hdr = append(hdr, bvix3Magic...)
	hdr = append(hdr, version, 0, 0)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(docs))
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(bw.terms))
	hdr = binary.LittleEndian.AppendUint32(hdr, bvix3FrameLen)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(len(secs)))
	for i, sec := range secs {
		hdr = binary.LittleEndian.AppendUint64(hdr, offs[i])
		hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(sec)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(sec, castagnoli))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(hdr[len(bvix3Magic):], castagnoli))

	var n int64
	emit := func(p []byte) error {
		k, err := w.Write(p)
		n += int64(k)
		return err
	}
	if err := emit(hdr); err != nil {
		return n, err
	}
	for i, sec := range secs {
		if uint64(n) < offs[i] {
			if err := emit(make([]byte, offs[i]-uint64(n))); err != nil {
				return n, err
			}
		}
		if err := emit(sec); err != nil {
			return n, err
		}
	}
	return n, nil
}

// sortedEntries enumerates every (term, entry) pair in name order,
// materializing through the lazy backend when the index was opened
// from a mapping.
func (idx *Index) sortedEntries() ([]string, []termEntry, error) {
	if idx.lazy != nil {
		return idx.lazy.allEntries()
	}
	names := make([]string, 0, len(idx.terms))
	for t := range idx.terms {
		names = append(names, t)
	}
	sort.Strings(names)
	entries := make([]termEntry, len(names))
	for i, t := range names {
		entries[i] = idx.terms[t]
	}
	return names, entries, nil
}

// bvix3Geometry is the validated shape of one BVIX3 file: borrowed
// section slices plus the aggregates the dict walk established.
type bvix3Geometry struct {
	docs       int
	terms      int
	frameLen   int
	dict       []byte
	frames     []byte
	payload    []byte
	impacts    []byte // v4 impacts section; nil for v3 files
	hasImpacts bool
	sizeBytes  int // sum of posting blob lengths
}

// codecByteFor resolves the codec byte for one dict record: the
// entry's recorded codec name when the builder set one, otherwise
// identified exactly from the blob's self-describing header. 0 means
// the codec is outside the registry (never the case for blobs this
// module wrote).
func codecByteFor(e termEntry, blob []byte) byte {
	if e.codec != "" {
		if id, ok := codecs.IDByName(e.codec); ok {
			return id
		}
	}
	if name, ok := codecs.IdentifyBlob(blob); ok {
		if id, ok := codecs.IDByName(name); ok {
			return id
		}
	}
	return 0
}

// dictRecord is one parsed dict entry. name borrows from the dict
// section; callers copy it before retaining.
type dictRecord struct {
	name    []byte
	count   int
	payOff  uint64
	postLen uint32
	payCRC  uint32 // CRC32-C of the payload record (blob + freq bytes)
	codec   byte   // registry codec ID (codecs.NameByID); 0 = unspecified
	next    int    // dict offset of the following record
}

// parseDictRecord reads the record starting at dict[off]. Bounds are
// re-checked on every parse so the lookup path never trusts offsets
// further than the open-time validation that produced them.
func parseDictRecord(dict []byte, off int) (dictRecord, error) {
	if off < 0 || off+2 > len(dict) {
		return dictRecord{}, fmt.Errorf("index: dict record at %d overruns section", off)
	}
	nameLen := int(binary.LittleEndian.Uint16(dict[off:]))
	if off+bvix3RecordFixed+nameLen > len(dict) {
		return dictRecord{}, fmt.Errorf("index: dict record at %d overruns section", off)
	}
	name := dict[off+2 : off+2+nameLen]
	p := off + 2 + nameLen
	return dictRecord{
		name:    name,
		count:   int(binary.LittleEndian.Uint32(dict[p:])),
		payOff:  binary.LittleEndian.Uint64(dict[p+4:]),
		postLen: binary.LittleEndian.Uint32(dict[p+12:]),
		payCRC:  binary.LittleEndian.Uint32(dict[p+16:]),
		codec:   dict[p+20],
		next:    off + bvix3RecordFixed + nameLen,
	}, nil
}

// bvix3Section is one entry of the header's section table.
type bvix3Section struct {
	off, length uint64
	crc         uint32
}

// bvix3SectionNames index the section table for quarantine reporting.
var bvix3SectionNames = [4]string{"dict", "frames", "payload", "impacts"}

// parseBVIX3 validates a whole BVIX3 file: header checksum, section
// geometry and checksums, zero padding, and a full dictionary walk
// that cross-checks the skip frames, name ordering, per-term counts
// against the document count, and the exact tiling of the payload
// section. No posting is decoded. After parseBVIX3 succeeds, every
// record offset the lookup path can derive is in bounds.
func parseBVIX3(data []byte) (*bvix3Geometry, error) {
	g, secs, err := parseBVIX3Shell(data)
	if err != nil {
		return nil, err
	}
	for i, s := range secs {
		if got := crc32.Checksum(data[s.off:s.off+s.length], castagnoli); got != s.crc {
			return nil, fmt.Errorf("index: %w: BVIX3 section %d crc32c %08x, table says %08x", core.ErrChecksum, i, got, s.crc)
		}
	}
	valid, err := g.walkDict(true, true)
	if err != nil {
		return nil, err
	}
	if valid != g.terms {
		return nil, fmt.Errorf("index: BVIX3 dict walk validated %d of %d terms", valid, g.terms)
	}
	if g.hasImpacts {
		if err := g.walkImpacts(); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// parseBVIX3Shell validates everything up to (but not including) the
// per-section checksums and the dictionary walk: magic, header CRC,
// version, section geometry, padding zeros, and frame-table sizing.
// It is the part of open that must hold even for degraded-mode
// recovery — a file whose shell fails has no trustworthy map of its
// own bytes and cannot be salvaged section by section. The returned
// slice has one entry per section: 3 for v3 files, 4 for v4.
func parseBVIX3Shell(data []byte) (*bvix3Geometry, []bvix3Section, error) {
	if err := checkMagic(data); err != nil {
		return nil, nil, err
	}
	if len(data) < bvix3DataStart {
		return nil, nil, fmt.Errorf("index: %w: %d bytes is shorter than a BVIX3 header", core.ErrChecksum, len(data))
	}
	// The version byte positions the section table and header CRC, so
	// it is read before the CRC check; an unsupported value fails here,
	// and a corrupted-but-supported one fails the CRC at its layout.
	nSec := 0
	switch data[5] {
	case bvix3Version:
		nSec = 3
	case bvix3VersionImpacts:
		nSec = 4
	default:
		return nil, nil, fmt.Errorf("index: %w: BVIX3 file declares version %d, this build reads versions %d and %d",
			core.ErrVersion, data[5], bvix3Version, bvix3VersionImpacts)
	}
	hdrSize := bvix3HeaderSizeFor(nSec)
	if got := binary.LittleEndian.Uint32(data[hdrSize-4:]); got != crc32.Checksum(data[len(bvix3Magic):hdrSize-4], castagnoli) {
		return nil, nil, fmt.Errorf("index: %w: BVIX3 header checksum mismatch", core.ErrChecksum)
	}
	if data[6] != 0 || data[7] != 0 {
		return nil, nil, fmt.Errorf("index: BVIX3 header padding not zero")
	}
	g := &bvix3Geometry{
		docs:       int(binary.LittleEndian.Uint32(data[8:])),
		terms:      int(binary.LittleEndian.Uint32(data[12:])),
		frameLen:   int(binary.LittleEndian.Uint32(data[16:])),
		hasImpacts: nSec == 4,
	}
	if sc := binary.LittleEndian.Uint32(data[20:]); sc != uint32(nSec) {
		return nil, nil, fmt.Errorf("index: BVIX3 version %d declares %d sections, want %d", data[5], sc, nSec)
	}
	if g.terms > 0 && g.frameLen <= 0 {
		return nil, nil, fmt.Errorf("index: BVIX3 frame length %d invalid", g.frameLen)
	}

	secs := make([]bvix3Section, nSec)
	for i := range secs {
		p := 24 + i*20
		secs[i] = bvix3Section{
			off:    binary.LittleEndian.Uint64(data[p:]),
			length: binary.LittleEndian.Uint64(data[p+8:]),
			crc:    binary.LittleEndian.Uint32(data[p+16:]),
		}
	}
	// Geometry: sections are 64-aligned, in order, and tile the file
	// exactly (padding gaps must be zero so no byte escapes coverage).
	want := uint64(bvix3DataStart)
	for i, s := range secs {
		if s.off != want {
			return nil, nil, fmt.Errorf("index: BVIX3 section %d at offset %d, want %d", i, s.off, want)
		}
		if s.off+s.length < s.off || s.off+s.length > uint64(len(data)) {
			return nil, nil, fmt.Errorf("index: %w: BVIX3 section %d overruns file", core.ErrChecksum, i)
		}
		want = align(s.off+s.length, bvix3Align)
	}
	last := secs[nSec-1]
	if end := last.off + last.length; end != uint64(len(data)) {
		return nil, nil, fmt.Errorf("index: %d trailing bytes after BVIX3 %s section", uint64(len(data))-end, bvix3SectionNames[nSec-1])
	}
	zeroRuns := [][2]uint64{{uint64(hdrSize), secs[0].off}}
	for i := 1; i < nSec; i++ {
		zeroRuns = append(zeroRuns, [2]uint64{secs[i-1].off + secs[i-1].length, secs[i].off})
	}
	for _, run := range zeroRuns {
		for _, b := range data[run[0]:run[1]] {
			if b != 0 {
				return nil, nil, fmt.Errorf("index: BVIX3 padding bytes not zero")
			}
		}
	}
	g.dict = data[secs[0].off : secs[0].off+secs[0].length]
	g.frames = data[secs[1].off : secs[1].off+secs[1].length]
	g.payload = data[secs[2].off : secs[2].off+secs[2].length]
	if g.hasImpacts {
		g.impacts = data[secs[3].off : secs[3].off+secs[3].length]
	}

	frameCount := 0
	if g.terms > 0 {
		frameCount = (g.terms + g.frameLen - 1) / g.frameLen
	}
	if len(g.frames) != 8*frameCount {
		return nil, nil, fmt.Errorf("index: BVIX3 frames section is %d bytes, want %d for %d terms", len(g.frames), 8*frameCount, g.terms)
	}
	return g, secs, nil
}

// walkDict is the dictionary walk: every record parses, names strictly
// increase, per-term counts fit the document count, and payload
// records tile their section with only deterministic alignment padding
// between them. With checkFrames, each frameLen-th record is also
// cross-checked against the skip-frame table (degraded opens that
// rebuild the frames skip this). The walk accumulates g.sizeBytes over
// the records it accepts and returns how many validated. In strict
// mode the first violation is returned as an error; otherwise the walk
// stops there and reports the valid prefix — the salvageable part of a
// corrupt dictionary, every record of which has fully bounds-checked
// payload geometry.
func (g *bvix3Geometry) walkDict(strict, checkFrames bool) (int, error) {
	cur, payCur := 0, uint64(0)
	var prev []byte
	for i := 0; i < g.terms; i++ {
		if checkFrames && i%g.frameLen == 0 {
			if got := binary.LittleEndian.Uint64(g.frames[8*(i/g.frameLen):]); got != uint64(cur) {
				if !strict {
					return i, nil
				}
				return i, fmt.Errorf("index: BVIX3 frame %d points at %d, record is at %d", i/g.frameLen, got, cur)
			}
		}
		rec, err := parseDictRecord(g.dict, cur)
		if err != nil {
			if !strict {
				return i, nil
			}
			return i, err
		}
		if i > 0 && bytes.Compare(prev, rec.name) >= 0 {
			if !strict {
				return i, nil
			}
			return i, fmt.Errorf("index: BVIX3 dict not sorted at term %d (%q after %q)", i, rec.name, prev)
		}
		if rec.count > g.docs {
			if !strict {
				return i, nil
			}
			return i, fmt.Errorf("index: term %q declares %d postings in a %d-document index", rec.name, rec.count, g.docs)
		}
		if rec.codec > codecs.MaxID() {
			if !strict {
				return i, nil
			}
			return i, fmt.Errorf("index: %w: term %q codec byte %d out of range (registry max %d)",
				core.ErrBadFormat, rec.name, rec.codec, codecs.MaxID())
		}
		if rec.payOff != align(payCur, bvix3RecAlign) {
			if !strict {
				return i, nil
			}
			return i, fmt.Errorf("index: term %q payload at %d, want %d", rec.name, rec.payOff, align(payCur, bvix3RecAlign))
		}
		payCur = rec.payOff + uint64(rec.postLen) + 2*uint64(rec.count)
		if payCur > uint64(len(g.payload)) {
			if !strict {
				return i, nil
			}
			return i, fmt.Errorf("index: term %q payload overruns section", rec.name)
		}
		g.sizeBytes += int(rec.postLen)
		prev, cur = rec.name, rec.next
	}
	if cur != len(g.dict) {
		if !strict {
			return g.terms, nil
		}
		return g.terms, fmt.Errorf("index: %d trailing bytes after last BVIX3 dict record", len(g.dict)-cur)
	}
	if payCur != uint64(len(g.payload)) {
		if !strict {
			return g.terms, nil
		}
		return g.terms, fmt.Errorf("index: %d trailing bytes after last BVIX3 payload record", uint64(len(g.payload))-payCur)
	}
	return g.terms, nil
}

// materialize decodes one record's posting and frequency payload into
// heap-owned memory. Decoders copy what they keep (the core.Decoder
// borrowed-bytes contract), so the result never aliases the mapping.
func (g *bvix3Geometry) materialize(rec dictRecord) (termEntry, error) {
	blob := g.payload[rec.payOff : rec.payOff+uint64(rec.postLen)]
	blobCodec, _ := codecs.IdentifyBlob(blob)
	codecName := blobCodec
	if rec.codec != 0 {
		// A non-zero codec byte must agree with the blob it describes —
		// a mismatch means the dict and payload no longer tell the same
		// story about these bytes.
		want, ok := codecs.NameByID(rec.codec)
		if !ok {
			return termEntry{}, fmt.Errorf("index: %w: term %q codec byte %d out of range",
				core.ErrBadFormat, rec.name, rec.codec)
		}
		if blobCodec != want {
			return termEntry{}, fmt.Errorf("index: %w: term %q dict declares codec %s, blob is %q",
				core.ErrBadFormat, rec.name, want, blobCodec)
		}
		codecName = want
	}
	p, err := codecs.Decode(blob)
	if err != nil {
		return termEntry{}, fmt.Errorf("index: term %q posting: %w", rec.name, err)
	}
	if p.Len() != rec.count {
		return termEntry{}, fmt.Errorf("index: term %q: %d postings but %d frequencies", rec.name, p.Len(), rec.count)
	}
	freqB := g.payload[rec.payOff+uint64(rec.postLen):][:2*rec.count]
	freqs := make([]uint16, rec.count)
	for i := range freqs {
		freqs[i] = binary.LittleEndian.Uint16(freqB[2*i:])
	}
	return termEntry{posting: p, freqs: freqs, codec: codecName}, nil
}

// readBVIX3 is the eager path used by Read: validate everything, then
// materialize every term into an ordinary heap index. data may be
// heap-backed or mapped; nothing in the result aliases it.
func readBVIX3(data []byte) (*Index, error) {
	g, err := parseBVIX3(data)
	if err != nil {
		return nil, err
	}
	idx := &Index{terms: make(map[string]termEntry, g.terms), docs: g.docs}
	cur := 0
	for i := 0; i < g.terms; i++ {
		rec, err := parseDictRecord(g.dict, cur)
		if err != nil {
			return nil, err
		}
		e, err := g.materializeAt(rec, i)
		if err != nil {
			return nil, err
		}
		idx.terms[string(rec.name)] = e
		cur = rec.next
	}
	return idx, nil
}

// materializeAt is materialize plus the term's impact annotations when
// the file carries them; ordinal is the term's position in dict order
// (the impacts offset-table key).
func (g *bvix3Geometry) materializeAt(rec dictRecord, ordinal int) (termEntry, error) {
	e, err := g.materialize(rec)
	if err != nil || !g.hasImpacts {
		return e, err
	}
	m, err := g.materializeImpacts(rec, ordinal)
	if err != nil {
		return termEntry{}, err
	}
	e.impacts = m
	return e, nil
}

// lazyIndex backs an Index opened from a BVIX3 mapping: terms
// materialize on first access straight out of the mapped sections and
// are memoized. All borrowed-byte reads happen under the read lock;
// close takes the write lock before unmapping, so no lookup can touch
// the mapping mid-unmap.
type lazyIndex struct {
	geo       bvix3Geometry
	termCount int
	sizeBytes int

	// degraded marks an index salvaged by OpenFileDegraded; quarantined
	// names (payload records that failed verification) are reported
	// absent without touching the mapping, and impactsQuarantined names
	// are served WITHOUT their impact annotations (postings intact,
	// ranking falls back to frequency-derived impacts). All are fixed
	// at open time.
	degraded           bool
	quarantined        map[string]struct{}
	impactsQuarantined map[string]struct{}

	mu     sync.RWMutex
	ready  map[string]termEntry
	closed bool
	closer io.Closer // the mapping; nil when backed by heap bytes
}

// entry resolves and memoizes one term. Terms that fail to decode are
// reported absent — unreachable in practice, since every section
// checksum was verified at open time.
func (lz *lazyIndex) entry(term string) (termEntry, bool) {
	if _, bad := lz.quarantined[term]; bad {
		return termEntry{}, false
	}
	lz.mu.RLock()
	if e, ok := lz.ready[term]; ok {
		lz.mu.RUnlock()
		return e, true
	}
	if lz.closed {
		lz.mu.RUnlock()
		return termEntry{}, false
	}
	e, ok := func() (termEntry, bool) {
		rec, ordinal, ok := lz.locate(term)
		if !ok {
			return termEntry{}, false
		}
		e, err := lz.materializeFor(rec, ordinal)
		return e, err == nil
	}()
	lz.mu.RUnlock()
	if !ok {
		return termEntry{}, false
	}
	lz.mu.Lock()
	if prev, dup := lz.ready[term]; dup {
		e = prev // concurrent materializers converge on one shared entry
	} else {
		lz.ready[term] = e
	}
	lz.mu.Unlock()
	return e, true
}

// materializeFor resolves one record to a term entry, attaching impact
// annotations when the file carries them. On a degraded index a term
// whose impacts were quarantined (or fail to decode) still serves its
// postings — ranking just falls back to frequency-derived impacts.
func (lz *lazyIndex) materializeFor(rec dictRecord, ordinal int) (termEntry, error) {
	e, err := lz.geo.materialize(rec)
	if err != nil || !lz.geo.hasImpacts {
		return e, err
	}
	if _, bad := lz.impactsQuarantined[string(rec.name)]; bad {
		return e, nil
	}
	m, merr := lz.geo.materializeImpacts(rec, ordinal)
	if merr != nil {
		if lz.degraded {
			return e, nil
		}
		return termEntry{}, merr
	}
	e.impacts = m
	return e, nil
}

// locate finds a term's dict record and its dict-order ordinal (the
// impacts offset-table key): binary search over the skip frames on
// each frame's first name (read zero-copy from the dict), then a scan
// of at most frameLen records. Caller holds the read lock.
func (lz *lazyIndex) locate(term string) (dictRecord, int, bool) {
	nFrames := len(lz.geo.frames) / 8
	if nFrames == 0 {
		return dictRecord{}, 0, false
	}
	// First frame whose first name is > term; the record, if present,
	// lives in the frame before it.
	f := sort.Search(nFrames, func(f int) bool {
		off := int(binary.LittleEndian.Uint64(lz.geo.frames[8*f:]))
		rec, err := parseDictRecord(lz.geo.dict, off)
		return err == nil && compareBytesString(rec.name, term) > 0
	})
	if f == 0 {
		return dictRecord{}, 0, false
	}
	f--
	cur := int(binary.LittleEndian.Uint64(lz.geo.frames[8*f:]))
	remaining := lz.termCount - f*lz.geo.frameLen
	for i := 0; i < min(lz.geo.frameLen, remaining); i++ {
		rec, err := parseDictRecord(lz.geo.dict, cur)
		if err != nil {
			return dictRecord{}, 0, false
		}
		switch c := compareBytesString(rec.name, term); {
		case c == 0:
			return rec, f*lz.geo.frameLen + i, true
		case c > 0:
			return dictRecord{}, 0, false
		}
		cur = rec.next
	}
	return dictRecord{}, 0, false
}

// allEntries materializes every term in dict order (for rewriting via
// WriteTo/WriteBVIX3Impacts). On a degraded index the quarantined
// terms are skipped — rewriting a salvaged index persists exactly what
// it can still serve, which is the rebuild runbook.
func (lz *lazyIndex) allEntries() ([]string, []termEntry, error) {
	lz.mu.RLock()
	defer lz.mu.RUnlock()
	if lz.closed {
		return nil, nil, errIndexClosed
	}
	names := make([]string, 0, lz.termCount)
	entries := make([]termEntry, 0, lz.termCount)
	cur := 0
	for i := 0; i < lz.termCount; i++ {
		rec, err := parseDictRecord(lz.geo.dict, cur)
		if err != nil {
			return nil, nil, err
		}
		cur = rec.next
		if _, bad := lz.quarantined[string(rec.name)]; bad {
			continue
		}
		e, err := lz.materializeFor(rec, i)
		if err != nil {
			return nil, nil, err
		}
		names = append(names, string(rec.name))
		entries = append(entries, e)
	}
	return names, entries, nil
}

// dictCursor walks a mapped index's dict in name order one record at a
// time — the streaming merge's view of one input. Quarantined names
// are skipped, as allEntries skips them. Every step reads the borrowed
// bytes under the lazy index's read lock; between steps the cursor
// holds only the current record, whose name it has copied out.
type dictCursor struct {
	lz   *lazyIndex
	next int // dict offset of the record after the current one
	left int // records not yet parsed
	rec  dictRecord
	name string // current term; meaningless once done
	done bool
}

var errIndexClosed = errors.New("index: use of closed index")

// newDictCursor positions a cursor on idx's first servable term. idx
// must be a mapped BVIX3 index — what every sealed segment is.
func newDictCursor(idx *Index) (*dictCursor, error) {
	if idx.lazy == nil {
		return nil, errors.New("index: not a mapped BVIX3 index")
	}
	c := &dictCursor{lz: idx.lazy, left: idx.lazy.termCount}
	return c, c.advance()
}

// advance moves to the next servable record, or sets done.
func (c *dictCursor) advance() error {
	lz := c.lz
	lz.mu.RLock()
	defer lz.mu.RUnlock()
	if lz.closed {
		return errIndexClosed
	}
	for ; c.left > 0; c.left-- {
		rec, err := parseDictRecord(lz.geo.dict, c.next)
		if err != nil {
			return err
		}
		c.next = rec.next
		if _, bad := lz.quarantined[string(rec.name)]; bad {
			continue
		}
		c.rec, c.name = rec, string(rec.name)
		c.left--
		return nil
	}
	c.done = true
	return nil
}

// take materializes the current term's postings and frequencies into
// heap memory (impact annotations are not read), then advances.
func (c *dictCursor) take() (termEntry, error) {
	lz := c.lz
	lz.mu.RLock()
	if lz.closed {
		lz.mu.RUnlock()
		return termEntry{}, errIndexClosed
	}
	e, err := lz.geo.materialize(c.rec)
	lz.mu.RUnlock()
	if err != nil {
		return termEntry{}, err
	}
	return e, c.advance()
}

func (lz *lazyIndex) close() error {
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if lz.closed {
		return nil
	}
	lz.closed = true
	lz.geo.dict, lz.geo.frames, lz.geo.payload, lz.geo.impacts = nil, nil, nil, nil
	if lz.closer != nil {
		return lz.closer.Close()
	}
	return nil
}

// compareBytesString is bytes.Compare against a string without
// converting (the lookup path runs it per probed record).
func compareBytesString(b []byte, s string) int {
	for i := 0; i < len(b) && i < len(s); i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// openBVIX3Lazy validates data (every section checksum included — the
// laziness is in skipping posting materialization, not integrity) and
// returns an index whose postings decode on first access. closer, when
// non-nil, owns the mapping behind data and is closed by Index.Close.
func openBVIX3Lazy(data []byte, closer io.Closer) (*Index, error) {
	g, err := parseBVIX3(data)
	if err != nil {
		return nil, err
	}
	lz := &lazyIndex{
		geo:       *g,
		termCount: g.terms,
		sizeBytes: g.sizeBytes,
		ready:     make(map[string]termEntry),
		closer:    closer,
	}
	return &Index{docs: g.docs, lazy: lz}, nil
}

// openMapFile is the mapping entry point OpenFile uses — a variable so
// tests can route opens through the portable (non-mmap) fallback and
// exercise that path on every platform.
var openMapFile = mapfile.Open

// OpenFile opens a persisted BVIX3 index from disk by path. The file
// is memory-mapped where the platform supports it (see mapfile) and its
// postings materialize lazily on first access, so time-to-first-query
// is dominated by checksum verification rather than decompression.
// Retired formats are refused by magic with core.ErrVersion. The
// returned index must be Closed when it is no longer being served; see
// Index.Close for the ownership rules.
func OpenFile(path string) (*Index, error) {
	mf, err := openMapFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", path, err)
	}
	idx, err := openBVIX3Lazy(mf.Data(), mf)
	if err != nil {
		mf.Close()
		return nil, err
	}
	return idx, nil
}
