package core

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Postings additionally implement encoding.BinaryMarshaler: the binary
// form is self-describing (a one-byte format tag, then the codec's own
// layout, little-endian throughout) so an index can persist compressed
// postings and reload them without recompressing.
//
// Decoder is the codec-side counterpart: it reconstructs a Posting from
// MarshalBinary output, and only from exactly that: bytes after the
// payload are refused (CheckEnd). Every codec in this module implements it;
// codecs.Decode dispatches on the format tag when the producing codec
// is unknown.
//
// Borrowed-bytes contract: data may be a view into memory the caller
// does not own — a slice of an mmap-ed index section that can be
// unmapped later (see index.OpenFile). Decode must therefore copy
// everything it keeps: the returned Posting must not retain data or
// any subslice of it. All codecs in this module satisfy this by
// construction (they parse into freshly allocated structures); new
// Decoder implementations must preserve it, or lazily materialized
// postings would dangle after the index file is closed.
type Decoder interface {
	Decode(data []byte) (Posting, error)
}

// ErrBadFormat is returned when Decode is handed bytes that are not a
// valid serialized posting for the codec (wrong tag, truncation,
// corrupt lengths).
var ErrBadFormat = errors.New("core: malformed serialized posting")

// VerifyDecompress fully decodes p and checks the result is a sorted
// set of the declared cardinality, converting any panic from a corrupt
// payload into ErrBadFormat. Codec Decode implementations run this, or
// prove the same from the blob's structure without decoding it (as
// Roaring does), so a successfully decoded posting is guaranteed
// usable. (Adversarial inputs can still force a large transient
// allocation before the check fails; do not feed untrusted data to
// Decode.)
func VerifyDecompress(p Posting) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: corrupt payload: %v", ErrBadFormat, r)
		}
	}()
	out := p.Decompress()
	if len(out) != p.Len() {
		return fmt.Errorf("%w: decoded %d values, header says %d", ErrBadFormat, len(out), p.Len())
	}
	if ValidateSorted(out) != nil {
		return fmt.Errorf("%w: decoded values not strictly increasing", ErrBadFormat)
	}
	return nil
}

// Format tags. The tag is the first byte of every serialized posting.
const (
	TagBitset byte = 0x01 + iota
	TagBBC
	TagWAH
	TagEWAH
	TagPLWAH
	TagCONCISE
	TagVALWAH
	TagSBH
	TagRoaring
	TagRawList
	TagBlocked // block-framed list codec; inner codec named in header
	TagPEF
	// TagRoaringRun marks the Roaring+Run extension codec (not one of
	// the paper's 24 methods).
	TagRoaringRun
)

// PutHeader appends the standard header: tag + uint32 cardinality.
func PutHeader(dst []byte, tag byte, n int) []byte {
	dst = append(dst, tag)
	return binary.LittleEndian.AppendUint32(dst, uint32(n))
}

// GetHeader validates the tag and extracts the cardinality, returning
// the remaining payload.
func GetHeader(data []byte, tag byte) (n int, rest []byte, err error) {
	if len(data) < 5 {
		return 0, nil, fmt.Errorf("%w: short header (%d bytes)", ErrBadFormat, len(data))
	}
	if data[0] != tag {
		return 0, nil, fmt.Errorf("%w: tag 0x%02x, want 0x%02x", ErrBadFormat, data[0], tag)
	}
	return int(binary.LittleEndian.Uint32(data[1:])), data[5:], nil
}

// CheckEnd is Decode's last structural check: rest, what is left of the
// blob once the payload is read, must be empty. A blob is exactly one
// MarshalBinary output, never a prefix of a longer byte string.
func CheckEnd(rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes after the payload", ErrBadFormat, len(rest))
	}
	return nil
}
