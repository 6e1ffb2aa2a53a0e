package index

import (
	"bufio"
	"bytes"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/codecs"
	"repro/internal/core"
)

// Index persistence: the serialized form embeds each term's compressed
// posting via its self-describing binary encoding, so an index written
// with one codec loads without knowing which codec built it.
//
// Two on-disk formats exist:
//
//   - "BVIX3" (current serving format, written by WriteBVIX3): three
//     section-aligned, individually CRC-checked segments (term dict,
//     skip frames, posting payloads) laid out for zero-copy mmap open
//     with lazy posting materialization. See bvix3.go for the layout.
//     Read accepts it eagerly; OpenFile opens it lazily.
//   - Versioned "BVIX2" (streaming format, written by WriteTo): magic,
//     one version byte, the payload, then a CRC32-C (Castagnoli)
//     trailer u32 over version byte + payload. Read verifies the
//     checksum before parsing anything, so a flipped bit anywhere after
//     the magic surfaces as core.ErrChecksum rather than a confusing
//     decode error — and a version byte this build does not know yields
//     core.ErrVersion.
//
// The unversioned, unchecksummed seed format ("BVIX1") is no longer
// read: nothing writes it, and Read rejects its magic with
// core.ErrVersion.
//
// BVIX2 payload layout (little-endian): doc count u32, term count u32,
// then per term (sorted by name for determinism): name (u16 len +
// bytes), frequencies (u32 count + u16 values), posting blob (u32 len +
// bytes).

var (
	legacyMagic = []byte("BVIX1")
	indexMagic  = []byte("BVIX2")
	// bvix3Magic lives in bvix3.go with the rest of the BVIX3 format.
)

// formatVersion is the payload version written inside BVIX2 files.
const formatVersion = 1

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteTo serializes the index in the versioned, checksummed BVIX2
// streaming format. Lazily opened indexes are materialized in full
// first, so WriteTo doubles as a BVIX3 → BVIX2 converter.
func (idx *Index) WriteTo(w io.Writer) (int64, error) {
	names, entries, serr := idx.sortedEntries()
	if serr != nil {
		return 0, serr
	}
	bw := bufio.NewWriter(w)
	crc := crc32.New(castagnoli)
	var n int64
	// write appends p to the output; summed bytes also feed the CRC
	// trailer (everything between the magic and the trailer itself).
	write := func(p []byte, summed bool) error {
		k, err := bw.Write(p)
		n += int64(k)
		if err != nil {
			return err
		}
		if summed {
			crc.Write(p) // hash.Hash.Write never returns an error
		}
		return nil
	}
	if err := write(indexMagic, false); err != nil {
		return n, err
	}
	if err := write([]byte{formatVersion}, true); err != nil {
		return n, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(idx.docs))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(names)))
	if err := write(hdr[:], true); err != nil {
		return n, err
	}
	for i, name := range names {
		e := entries[i]
		var buf []byte
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(name)))
		buf = append(buf, name...)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(e.freqs)))
		for _, f := range e.freqs {
			buf = binary.LittleEndian.AppendUint16(buf, f)
		}
		blob, err := e.posting.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			return n, fmt.Errorf("index: term %q: %w", name, err)
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(blob)))
		buf = append(buf, blob...)
		if err := write(buf, true); err != nil {
			return n, err
		}
	}
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc.Sum32())
	if err := write(trailer[:], false); err != nil {
		return n, err
	}
	return n, bw.Flush()
}

// Read loads an index written by WriteTo or WriteBVIX3.
func Read(r io.Reader) (*Index, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(indexMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	switch {
	case bytes.Equal(magic, bvix3Magic):
		// The BVIX3 parser works on the whole file (its section offsets
		// are absolute), so re-prefix the magic already consumed.
		rest, err := io.ReadAll(br)
		if err != nil {
			return nil, fmt.Errorf("index: reading body: %w", err)
		}
		data := make([]byte, 0, len(bvix3Magic)+len(rest))
		data = append(append(data, bvix3Magic...), rest...)
		return readBVIX3(data)
	case bytes.Equal(magic, indexMagic):
		return readVersioned(br)
	case bytes.Equal(magic, legacyMagic):
		return nil, fmt.Errorf("index: %w: BVIX1 (the unversioned, unchecksummed seed format) is no longer read; rebuild the index", core.ErrVersion)
	default:
		return nil, fmt.Errorf("index: bad magic %q", magic)
	}
}

// readVersioned handles BVIX2: slurp the remainder (the parsed index
// dwarfs the file in memory anyway), verify the CRC trailer over
// version byte + payload BEFORE interpreting a single field, then
// parse from the in-memory body where every declared count can be
// bounds-checked against the bytes that actually exist.
func readVersioned(r io.Reader) (*Index, error) {
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading body: %w", err)
	}
	if len(rest) < 1+4 { // version byte + trailer
		return nil, fmt.Errorf("index: %w: file truncated before checksum trailer", core.ErrChecksum)
	}
	body, trailer := rest[:len(rest)-4], rest[len(rest)-4:]
	got := crc32.Checksum(body, castagnoli)
	want := binary.LittleEndian.Uint32(trailer)
	if got != want {
		return nil, fmt.Errorf("index: %w: computed crc32c %08x, trailer %08x", core.ErrChecksum, got, want)
	}
	if v := body[0]; v != formatVersion {
		return nil, fmt.Errorf("index: %w: file declares version %d, this build reads version %d", core.ErrVersion, v, formatVersion)
	}
	return parsePayload(body[1:])
}

// payload is a bounds-checked cursor over an in-memory payload.
type payload struct {
	b   []byte
	off int
}

func (p *payload) remaining() int { return len(p.b) - p.off }

func (p *payload) take(n int) ([]byte, error) {
	if n < 0 || n > p.remaining() {
		return nil, io.ErrUnexpectedEOF
	}
	s := p.b[p.off : p.off+n]
	p.off += n
	return s, nil
}

func (p *payload) u16() (uint16, error) {
	b, err := p.take(2)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(b), nil
}

func (p *payload) u32() (uint32, error) {
	b, err := p.take(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func parsePayload(b []byte) (*Index, error) {
	p := &payload{b: b}
	docsU, err := p.u32()
	if err != nil {
		return nil, fmt.Errorf("index: reading header: %w", err)
	}
	termCountU, err := p.u32()
	if err != nil {
		return nil, fmt.Errorf("index: reading header: %w", err)
	}
	docs, termCount := int(docsU), int(termCountU)
	// A term record is at least 10 bytes (empty name, no freqs, empty
	// blob): reject impossible term counts before building anything.
	if minBytes := termCount * 10; minBytes > p.remaining() {
		return nil, fmt.Errorf("index: header declares %d terms but only %d payload bytes remain", termCount, p.remaining())
	}
	idx := &Index{terms: make(map[string]termEntry, termCount), docs: docs}
	for i := 0; i < termCount; i++ {
		nameLen, err := p.u16()
		if err != nil {
			return nil, fmt.Errorf("index: term %d name: %w", i, err)
		}
		nameB, err := p.take(int(nameLen))
		if err != nil {
			return nil, fmt.Errorf("index: term %d name: %w", i, err)
		}
		name := string(nameB)
		freqCountU, err := p.u32()
		if err != nil {
			return nil, fmt.Errorf("index: term %q freqs: %w", name, err)
		}
		freqCount := int(freqCountU)
		// A term appears in at most every document; anything larger is a
		// lying count, not data.
		if freqCount > docs {
			return nil, fmt.Errorf("index: term %q declares %d postings in a %d-document index", name, freqCount, docs)
		}
		freqB, err := p.take(2 * freqCount)
		if err != nil {
			return nil, fmt.Errorf("index: term %q freqs: %w", name, err)
		}
		freqs := make([]uint16, freqCount)
		for j := range freqs {
			freqs[j] = binary.LittleEndian.Uint16(freqB[2*j:])
		}
		blobLen, err := p.u32()
		if err != nil {
			return nil, fmt.Errorf("index: term %q posting: %w", name, err)
		}
		blob, err := p.take(int(blobLen))
		if err != nil {
			return nil, fmt.Errorf("index: term %q posting: %w", name, err)
		}
		pp, err := codecs.Decode(blob)
		if err != nil {
			return nil, fmt.Errorf("index: term %q posting: %w", name, err)
		}
		if pp.Len() != len(freqs) {
			return nil, fmt.Errorf("index: term %q: %d postings but %d frequencies",
				name, pp.Len(), len(freqs))
		}
		idx.terms[name] = termEntry{posting: pp, freqs: freqs}
	}
	if p.remaining() != 0 {
		return nil, fmt.Errorf("index: %d trailing bytes after last term", p.remaining())
	}
	return idx, nil
}
