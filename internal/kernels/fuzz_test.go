package kernels

import (
	"encoding/binary"
	"testing"
)

// FuzzVpackRoundtrip drives pack -> unpack roundtrips across every
// width through both layouts, cross-checking the specialized kernels
// against the generic references on arbitrary inputs. Run in CI as a
// fuzz smoke alongside FuzzBVIX3Read.
func FuzzVpackRoundtrip(f *testing.F) {
	// Seed the corner widths explicitly: 0 (no payload), 1 (densest
	// word reuse), 31 (every value straddles words), 32 (mask-free).
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0xff, 0x00, 0xaa, 0x55})
	f.Add(uint8(31), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(32), []byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, widthByte uint8, data []byte) {
		b := uint(widthByte) % 33
		mask := uint32(uint64(1)<<b - 1)
		var vals [128]uint32
		for i := range vals {
			if 4*i+4 <= len(data) {
				vals[i] = binary.LittleEndian.Uint32(data[4*i:]) & mask
			} else if len(data) > 0 {
				vals[i] = uint32(data[i%len(data)]) & mask
			}
		}

		// Vertical layout.
		packed := VPack128(nil, &vals, b)
		var ref, got [128]uint32
		VUnpackRef(packed, &ref, b)
		if ref != vals {
			t.Fatalf("b=%d: vertical reference roundtrip broken", b)
		}
		if VUnpack(packed, &got, b); got != ref {
			t.Fatalf("b=%d: VUnpack != VUnpackRef", b)
		}
		prev := uint32(0)
		if len(data) > 3 {
			prev = binary.LittleEndian.Uint32(data)
		}
		var delta, base [127]uint32
		VUnpackDelta(packed, &delta, prev, b)
		VUnpackBase(packed, &base, prev, b)
		p := prev
		for i := 0; i < 127; i++ {
			p += vals[i]
			if delta[i] != p {
				t.Fatalf("b=%d: fused delta diverges at %d: %d != %d", b, i, delta[i], p)
			}
			if base[i] != prev+vals[i] {
				t.Fatalf("b=%d: fused base diverges at %d", b, i)
			}
		}

		// Horizontal layout, at a data-derived length to hit the
		// kernel/reference tail split.
		n := 1
		if len(data) > 0 {
			n += int(data[0]) % 128
		}
		hp := Pack(nil, vals[:n], b)
		want := make([]uint32, n)
		wantUsed := UnpackRef(hp, want, b)
		out := make([]uint32, n)
		if used := Unpack(hp, out, b); used != wantUsed {
			t.Fatalf("b=%d n=%d: used %d, want %d", b, n, used, wantUsed)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("b=%d n=%d: Unpack[%d] = %d, want %d", b, n, i, out[i], want[i])
			}
			if want[i] != vals[i] {
				t.Fatalf("b=%d n=%d: horizontal roundtrip broken at %d", b, n, i)
			}
		}
	})
}
