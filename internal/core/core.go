// Package core defines the unified interfaces shared by every compression
// method in this study: bitmap codecs (WAH, EWAH, Roaring, ...) and
// inverted-list codecs (VB, PforDelta, SIMDBP128*, ...) all compress the
// same logical object — a sorted set of uint32 values — and all support
// the same four operations the paper measures: space, decompression,
// intersection, and union.
package core

import (
	"errors"
	"fmt"
)

// Kind distinguishes the two families of compression methods compared in
// the paper.
type Kind int

const (
	// KindBitmap marks bitmap compression methods (database lineage, §2).
	KindBitmap Kind = iota
	// KindList marks inverted-list compression methods (IR lineage, §3).
	KindList
)

// String returns the family name used in the paper's tables.
func (k Kind) String() string {
	switch k {
	case KindBitmap:
		return "bitmap"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Posting is an immutable compressed representation of a sorted set of
// uint32 values (document IDs / row IDs).
type Posting interface {
	// Len reports the number of values in the set.
	Len() int
	// SizeBytes reports the compressed footprint in bytes, including any
	// auxiliary structures (skip pointers, container metadata).
	SizeBytes() int
	// Decompress materializes the full sorted value list in a slice
	// the caller owns.
	Decompress() []uint32
	// DecompressAppend appends the full sorted value list to dst and
	// returns the extended slice, growing dst only when its capacity
	// runs out; dst[:len(dst)] is left as it was.
	DecompressAppend(dst []uint32) []uint32
}

// DecompressAppend appends p's values to dst: p.DecompressAppend(dst).
func DecompressAppend(p Posting, dst []uint32) []uint32 {
	return p.DecompressAppend(dst)
}

// GrowLen extends dst by n elements (reallocating only when capacity is
// insufficient) and returns the extended slice. The new tail is
// uninitialized scratch for the caller to fill — a shared helper for
// DecompressAppend implementations that decode block-wise into
// positioned sub-slices rather than appending element by element.
func GrowLen(dst []uint32, n int) []uint32 {
	if need := len(dst) + n; need > cap(dst) {
		grown := make([]uint32, need, max(need, 2*cap(dst)))
		copy(grown, dst)
		return grown
	}
	return dst[:len(dst)+n]
}

// Codec compresses sorted sets of uint32 values.
//
// Compress requires a strictly increasing slice; it returns an error
// otherwise. The returned Posting is independent of the input slice.
type Codec interface {
	Name() string
	Kind() Kind
	Compress(values []uint32) (Posting, error)
}

// Intersecter is implemented by postings that can intersect directly on
// the compressed representation (all bitmap codecs in this study, and
// list codecs via skip pointers). The result is an uncompressed sorted
// list, matching the paper's implementation (§B.1).
type Intersecter interface {
	IntersectWith(other Posting) ([]uint32, error)
}

// Unioner is implemented by postings that can union directly on the
// compressed representation.
type Unioner interface {
	UnionWith(other Posting) ([]uint32, error)
}

// ListProber is implemented by bitmap postings that can intersect an
// uncompressed sorted list directly against their compressed form —
// the paper's second intersection operator, "bitmap vs list" (§B.1),
// used when a running result meets the next compressed bitmap in a
// multi-way intersection.
type ListProber interface {
	// IntersectList returns the elements of sorted that are present in
	// the posting. sorted must be strictly increasing.
	IntersectList(sorted []uint32) []uint32
}

// BucketProber is implemented by bucketed bitmap postings (Roaring and
// Roaring+Run) that expose their 2^16-wide value buckets so the engine
// can intersect a compressed bitmap against a compressed list without
// decompressing either side: the mixed kernel walks bucket keys against
// the list's skip iterator, enumerating whichever side of a matching
// bucket is cheaper and probing the other. The same buckets OR straight
// into the dense union's accumulator: bitmap containers OR in
// word-wise, array containers set bits, run containers fill
// word-masked ranges, and no value list is materialized.
type BucketProber interface {
	Posting
	// NumBuckets reports the number of non-empty buckets.
	NumBuckets() int
	// BucketKey returns the high-16-bit key of bucket i; keys are
	// strictly increasing in i.
	BucketKey(i int) uint16
	// BucketLen reports the cardinality of bucket i (always > 0).
	BucketLen(i int) int
	// BucketContains reports whether low 16-bit value lo is present in
	// bucket i.
	BucketContains(i int, lo uint16) bool
	// AppendBucket appends bucket i's values — with the key's high bits
	// restored — to dst and returns the extended slice.
	AppendBucket(i int, dst []uint32) []uint32
	// OrWordsInto sets bit v-base of words for every value v of the
	// posting. base must be a multiple of 2^16 no greater than the
	// first bucket's values, and words must reach the last value.
	OrWordsInto(words []uint64, base uint32)
}

// BlockDecoder is implemented by list postings stored in the fixed
// block frame (intlist.Blocked): the posting exposes its physical
// blocks so ranked-retrieval cursors can decode only the blocks whose
// block-max impact can still beat the running top-k heap threshold.
// Block b holds the values [b*BlockSpan(), ...) of the sorted list;
// every block except possibly the last holds exactly BlockSpan()
// values, so positional impact blocks cut at the same width line up
// one-to-one with physical blocks.
type BlockDecoder interface {
	Posting
	// BlockSpan reports the frame's cut width (values per full block).
	BlockSpan() int
	// NumBlocks reports the number of blocks (ceil(Len/BlockSpan)).
	NumBlocks() int
	// BlockFirst returns the first value of block b without decoding it.
	BlockFirst(b int) uint32
	// DecodeBlock fills buf with block b's values and returns
	// buf[:blockLen]. buf must have room for BlockSpan values.
	DecodeBlock(b int, buf []uint32) []uint32
}

// Seeker is implemented by list postings with skip pointers: SeekGEQ
// support is what makes SvS intersection skip whole blocks (§B, App. B),
// and what lets PEF intersect without decompressing entire blocks.
type Seeker interface {
	// Iterator returns a fresh iterator positioned before the first value.
	Iterator() Iterator
}

// Iterator walks a posting in sorted order with skipping.
type Iterator interface {
	// Next returns the next value; ok is false when exhausted.
	Next() (v uint32, ok bool)
	// SeekGEQ advances to the first value >= target and returns it.
	// Subsequent Next calls continue after the returned value.
	SeekGEQ(target uint32) (v uint32, ok bool)
}

// ErrNotSorted is returned by Compress when the input is not strictly
// increasing.
var ErrNotSorted = errors.New("core: input values must be strictly increasing")

// ErrChecksum is returned when a persisted artifact fails its integrity
// check: the stored CRC trailer does not match the bytes read, meaning
// the file was corrupted, truncated, or tampered with after writing.
var ErrChecksum = errors.New("core: checksum mismatch (corrupt or truncated data)")

// ErrVersion is returned when a persisted artifact declares a format
// version this build does not understand.
var ErrVersion = errors.New("core: unsupported format version")

// ErrIncompatible is returned when a native compressed-form operation is
// asked to combine postings of different codecs.
var ErrIncompatible = errors.New("core: postings come from incompatible codecs")

// ValidateSorted checks the Compress input contract.
func ValidateSorted(values []uint32) error {
	for i := 1; i < len(values); i++ {
		if values[i] <= values[i-1] {
			return fmt.Errorf("%w: values[%d]=%d, values[%d]=%d",
				ErrNotSorted, i-1, values[i-1], i, values[i])
		}
	}
	return nil
}
