// Package iosim simulates a storage device with deterministic cost
// accounting — the controlled version of the disk experiment the paper
// defers to future work (§4.1) and faults [8] for running with an
// uncontrolled OS buffer cache. A Disk counts every read and byte
// fetched and converts them to a simulated cost; nothing sleeps, so
// results are exact and reproducible.
//
// Lists store their block payloads on the Disk via intlist's Fetcher
// hook: SvS intersection fetches only probed blocks. Bitmap postings
// (and any other codec without sub-structure access) must fetch their
// entire payload before operating — StoredWhole models that.
package iosim

import (
	"encoding"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/intlist"
)

// Disk is a simulated block device with per-read latency and throughput
// cost accounting. The zero value is unusable; use NewDisk.
type Disk struct {
	mu        sync.Mutex
	seekUS    float64 // fixed cost per read request
	usPerKB   float64 // transfer cost
	reads     int
	bytesRead int64
	store     [][]byte
}

// NewDisk returns a disk with the given per-read latency (microseconds)
// and per-KiB transfer cost. NVMe-flash-like defaults: NewDisk(80, 0.25);
// spinning-disk-like: NewDisk(5000, 10).
func NewDisk(seekUS, usPerKB float64) *Disk {
	return &Disk{seekUS: seekUS, usPerKB: usPerKB}
}

// Stats reports the accumulated read count, bytes, and simulated cost
// in microseconds.
func (d *Disk) Stats() (reads int, bytes int64, costUS float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads, d.bytesRead, float64(d.reads)*d.seekUS +
		float64(d.bytesRead)/1024*d.usPerKB
}

// Reset zeroes the counters (stored payloads remain).
func (d *Disk) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.reads, d.bytesRead = 0, 0
}

// account records one read of n bytes.
func (d *Disk) account(n int) {
	d.mu.Lock()
	d.reads++
	d.bytesRead += int64(n)
	d.mu.Unlock()
}

// put stores a payload and returns its handle.
func (d *Disk) put(data []byte) int {
	cp := make([]byte, len(data))
	copy(cp, data)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.store = append(d.store, cp)
	return len(d.store) - 1
}

// fetcher reads ranges of one stored payload with accounting.
type fetcher struct {
	d      *Disk
	handle int
}

// Fetch implements intlist.Fetcher.
func (f fetcher) Fetch(offset, length int) []byte {
	f.d.account(length)
	return f.d.store[f.handle][offset : offset+length]
}

// StoreList compresses values with the given block-framed codec and
// places the payload on the disk; operations fetch only the blocks they
// touch (skip pointers stay in memory).
func StoreList(d *Disk, b intlist.Blocked, values []uint32) (core.Posting, error) {
	return b.CompressStored(values, func(payload []byte) intlist.Fetcher {
		return fetcher{d: d, handle: d.put(payload)}
	})
}

// StoredWhole wraps any posting whose compressed form lives on disk in
// full: RLE bitmaps have no random access, so every operation first
// fetches the entire payload (its serialized size). The wrapped posting
// itself stays resident only as the decode target.
type StoredWhole struct {
	d     *Disk
	inner core.Posting
	size  int
}

// StoreWhole serializes p's footprint accounting onto the disk.
func StoreWhole(d *Disk, p core.Posting) (*StoredWhole, error) {
	m, ok := p.(encoding.BinaryMarshaler)
	if !ok {
		return nil, fmt.Errorf("iosim: posting %T is not serializable", p)
	}
	blob, err := m.MarshalBinary()
	if err != nil {
		return nil, err
	}
	d.put(blob) // occupy space; fetches are modeled as full-size reads
	return &StoredWhole{d: d, inner: p, size: len(blob)}, nil
}

// Len implements core.Posting.
func (s *StoredWhole) Len() int { return s.inner.Len() }

// SizeBytes implements core.Posting.
func (s *StoredWhole) SizeBytes() int { return s.size }

// Decompress fetches the whole payload, then decodes.
func (s *StoredWhole) Decompress() []uint32 {
	s.d.account(s.size)
	return s.inner.Decompress()
}

// DecompressAppend fetches the whole payload, then decodes into dst.
func (s *StoredWhole) DecompressAppend(dst []uint32) []uint32 {
	s.d.account(s.size)
	return s.inner.DecompressAppend(dst)
}

// IntersectWith fetches both whole payloads, then runs the native AND.
func (s *StoredWhole) IntersectWith(other core.Posting) ([]uint32, error) {
	o, ok := other.(*StoredWhole)
	if !ok {
		return nil, core.ErrIncompatible
	}
	inner, ok := s.inner.(core.Intersecter)
	if !ok {
		return nil, core.ErrIncompatible
	}
	s.d.account(s.size)
	o.d.account(o.size)
	return inner.IntersectWith(o.inner)
}

// UnionWith fetches both whole payloads, then runs the native OR.
func (s *StoredWhole) UnionWith(other core.Posting) ([]uint32, error) {
	o, ok := other.(*StoredWhole)
	if !ok {
		return nil, core.ErrIncompatible
	}
	inner, ok := s.inner.(core.Unioner)
	if !ok {
		return nil, core.ErrIncompatible
	}
	s.d.account(s.size)
	o.d.account(o.size)
	return inner.UnionWith(o.inner)
}
