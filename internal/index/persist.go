package index

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
)

// Index persistence: the one on-disk format is BVIX3 (see bvix3.go for
// the layout): section-aligned, individually CRC-checked segments
// (term dict, skip frames, posting payloads, optional impacts) laid out
// for zero-copy mmap open with lazy posting materialization. Each
// term's compressed posting is embedded via its self-describing binary
// encoding, so an index written with one codec loads without knowing
// which codec built it. WriteTo and WriteBVIX3Impacts write it; Read
// loads it eagerly, OpenFile lazily, OpenFileDegraded with salvage.
//
// Earlier generations are refused by magic, before any header field is
// read, with core.ErrVersion naming the format: nothing writes them any
// more, so a file carrying one is rebuilt, not parsed.
var retiredFormats = map[string]string{
	"BVIX1": "the unversioned, unchecksummed seed format",
	"BVIX2": "the checksummed streaming format",
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checkMagic is the one magic check every open path shares (Read,
// OpenFile and OpenFileDegraded all reach it through parseBVIX3Shell).
// Input shorter than a magic passes through to the length check.
func checkMagic(data []byte) error {
	if len(data) < len(bvix3Magic) {
		return nil
	}
	magic := data[:len(bvix3Magic)]
	if bytes.Equal(magic, bvix3Magic) {
		return nil
	}
	if what, ok := retiredFormats[string(magic)]; ok {
		return fmt.Errorf("index: %w: %s (%s) is no longer read; rebuild the index", core.ErrVersion, magic, what)
	}
	return fmt.Errorf("index: bad magic %q", magic)
}

// Read loads an index written by WriteTo or WriteBVIX3Impacts, eagerly:
// every section is verified and every posting materialized on the heap.
func Read(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("index: reading: %w", err)
	}
	return readBVIX3(data)
}
