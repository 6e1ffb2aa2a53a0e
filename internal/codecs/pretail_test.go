package codecs

import (
	"encoding"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/intlist"
)

// preTailCodecs maps the four padding codecs to their fixture names.
var preTailCodecs = map[string]string{
	"SIMDBP128":      "SIMDBP128",
	"SIMDBP128*":     "SIMDBP128-star",
	"SIMDPforDelta":  "SIMDPforDelta",
	"SIMDPforDelta*": "SIMDPforDelta-star",
}

// blockedLayout returns the offsets of a Blocked blob's flags byte, of
// its last skip entry and of its payload.
func blockedLayout(blob []byte) (flagsAt, lastSkipAt, payloadAt int) {
	flagsAt = 6 + int(blob[5])
	skips := int(binary.LittleEndian.Uint32(blob[flagsAt+2:]))
	return flagsAt, flagsAt + 6 + 8*(skips-1), flagsAt + 6 + 8*skips + 4
}

// TestPreTailBlobs: Blocked blobs written before VB tails (see
// testdata/pretail/README.md) still decode to their values, and
// re-encoding them VB-codes the packed partial last block only where
// that is smaller, leaving every other byte as it was.
func TestPreTailBlobs(t *testing.T) {
	for _, list := range []string{"short", "wide"} {
		raw, err := os.ReadFile(filepath.Join("testdata", "pretail", list+".u32"))
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint32, len(raw)/4)
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
		for codec, file := range preTailCodecs {
			name := codec + "/" + list
			old, err := os.ReadFile(filepath.Join("testdata", "pretail", file+"-"+list+".blob"))
			if err != nil {
				t.Fatal(err)
			}
			p, err := Decode(old)
			if err != nil {
				t.Fatalf("%s: old blob refused: %v", name, err)
			}
			if got := p.Decompress(); !slices.Equal(got, vals) {
				t.Fatalf("%s: old blob decodes to %d values, not the fixture's %d", name, len(got), len(vals))
			}
			flagsAt, lastSkipAt, payloadAt := blockedLayout(old)
			if old[flagsAt] != 0 {
				t.Fatalf("%s: old blob has flags 0x%02x", name, old[flagsAt])
			}
			c, err := ByName(codec)
			if err != nil {
				t.Fatal(err)
			}
			q, err := c.Compress(vals)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := q.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			tailAt := payloadAt + int(binary.LittleEndian.Uint32(old[lastSkipAt:]))
			tail := vals[len(vals)-len(vals)%intlist.BlockSize:]
			var vb []byte
			for i := 1; i < len(tail); i++ {
				vb = intlist.PutVB(vb, tail[i]-tail[i-1])
			}
			want := old
			if len(vb) < len(old)-tailAt {
				want = append([]byte(nil), old[:tailAt]...)
				want[flagsAt] = 2
				binary.LittleEndian.PutUint32(want[payloadAt-4:], uint32(tailAt-payloadAt+len(vb)))
				want = append(want, vb...)
			}
			if string(blob) != string(want) {
				t.Fatalf("%s: re-encoded blob (%d bytes, flags 0x%02x) is not the old one with a VB tail where smaller (%d bytes)",
					name, len(blob), blob[flagsAt], len(want))
			}
			// The tail decision each list was built for.
			if vbTail := blob[flagsAt] == 2; vbTail != (list == "short") {
				t.Fatalf("%s: VB tail %v", name, vbTail)
			}
			r, err := Decode(blob)
			if err != nil {
				t.Fatalf("%s: new blob refused: %v", name, err)
			}
			if !slices.Equal(r.Decompress(), vals) {
				t.Fatalf("%s: new blob round trip differs", name)
			}
		}
	}
}
