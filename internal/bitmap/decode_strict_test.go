package bitmap

import (
	"encoding"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
)

// TestRoaringDecodeRefusesMalformed: Roaring.Decode proves a posting
// usable from its structure alone, so each structural fault is refused
// with core.ErrBadFormat: bytes after the last container, container
// keys out of order, an array container out of order, and a header
// count the containers do not hold.
func TestRoaringDecodeRefusesMalformed(t *testing.T) {
	p, err := Roaring{}.Compress([]uint32{3, 9, 1 << 16, 1<<16 + 4})
	if err != nil {
		t.Fatal(err)
	}
	good, _ := p.(encoding.BinaryMarshaler).MarshalBinary()
	if _, err := (Roaring{}).Decode(good); err != nil {
		t.Fatalf("good blob refused: %v", err)
	}
	// Layout: 9-byte header; container 0 at 9 (key, kind, card, two
	// u16s), container 1 at 20.
	mutate := func(f func(b []byte) []byte) []byte { return f(slices.Clone(good)) }
	for name, blob := range map[string][]byte{
		"trailing byte": append(slices.Clone(good), 0),
		"keys out of order": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[20:], 0)
			return b
		}),
		"array out of order": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint16(b[16:], 3)
			binary.LittleEndian.PutUint16(b[18:], 3)
			return b
		}),
		"header count": mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[1:], 5)
			return b
		}),
	} {
		if _, err := (Roaring{}).Decode(blob); !errors.Is(err, core.ErrBadFormat) {
			t.Errorf("%s: err %v, want ErrBadFormat", name, err)
		}
	}
}

// TestEWAHDecodeRefusesOverlongMarker: a marker that owes more literal
// words than remain is refused, not read past the end.
func TestEWAHDecodeRefusesOverlongMarker(t *testing.T) {
	blob := core.PutHeader(nil, core.TagEWAH, 1)
	blob = binary.LittleEndian.AppendUint32(blob, 1)     // one word
	blob = binary.LittleEndian.AppendUint32(blob, 2<<17) // a marker owing two literals
	if _, err := (EWAH{}).Decode(blob); !errors.Is(err, core.ErrBadFormat) {
		t.Fatalf("err %v, want ErrBadFormat", err)
	}
}
