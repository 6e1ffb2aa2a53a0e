package core

import (
	"errors"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	blob := PutHeader(nil, TagWAH, 12345)
	if len(blob) != 5 {
		t.Fatalf("header length %d", len(blob))
	}
	n, rest, err := GetHeader(blob, TagWAH)
	if err != nil || n != 12345 || len(rest) != 0 {
		t.Fatalf("GetHeader = %d, %v, %v", n, rest, err)
	}
}

func TestHeaderRejectsMismatch(t *testing.T) {
	blob := PutHeader(nil, TagWAH, 7)
	if _, _, err := GetHeader(blob, TagEWAH); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("wrong tag accepted: %v", err)
	}
	if _, _, err := GetHeader(blob[:3], TagWAH); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short header accepted: %v", err)
	}
	if _, _, err := GetHeader(nil, TagWAH); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("empty input accepted: %v", err)
	}
}

// badPosting lies about its contents to exercise VerifyDecompress.
type badPosting struct {
	values []uint32
	n      int
}

func (p badPosting) Len() int             { return p.n }
func (p badPosting) SizeBytes() int       { return 4 * len(p.values) }
func (p badPosting) Decompress() []uint32 { return p.values }
func (p badPosting) DecompressAppend(dst []uint32) []uint32 {
	return append(dst, p.values...)
}

type panicPosting struct{}

func (panicPosting) Len() int             { return 1 }
func (panicPosting) SizeBytes() int       { return 1 }
func (panicPosting) Decompress() []uint32 { panic("corrupt payload") }
func (panicPosting) DecompressAppend([]uint32) []uint32 {
	panic("corrupt payload")
}

func TestVerifyDecompress(t *testing.T) {
	if err := VerifyDecompress(badPosting{values: []uint32{1, 2}, n: 2}); err != nil {
		t.Errorf("valid posting rejected: %v", err)
	}
	if err := VerifyDecompress(badPosting{values: []uint32{1, 2}, n: 3}); !errors.Is(err, ErrBadFormat) {
		t.Errorf("cardinality lie accepted: %v", err)
	}
	if err := VerifyDecompress(badPosting{values: []uint32{2, 1}, n: 2}); !errors.Is(err, ErrBadFormat) {
		t.Errorf("unsorted output accepted: %v", err)
	}
	if err := VerifyDecompress(panicPosting{}); !errors.Is(err, ErrBadFormat) {
		t.Errorf("panic not converted to error: %v", err)
	}
}
