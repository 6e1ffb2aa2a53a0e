package intlist

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
)

// paddingCodecs are the four block codecs that pack a short block at
// the full 128-value width.
var paddingCodecs = []BlockCodec{simdBP128Block{}, simdBP128StarBlock{}, simdPFDBlock{}, simdPFDStarBlock{}}

// vbTailWidths are the packed widths the tail cases are built at.
var vbTailWidths = []uint{0, 1, 7, 13, 24, 32}

// vbTailList returns one full block followed by an r-value tail that
// ends at 2³²−1. The tail's widest d-gap (with offsets, its widest
// offset from the tail's first value, which is what SIMDBP128* packs)
// is exactly w bits. ok is false when no such tail exists: width 0
// holds only a 1-value tail, and r−1 distinct offsets need w bits.
func vbTailList(rng *rand.Rand, r int, w uint, offsets bool) (vals []uint32, ok bool) {
	if (w == 0) != (r == 1) || (offsets && uint64(r-1) >= 1<<w) {
		return nil, false
	}
	rel := make([]uint64, 1, r) // tail values relative to the tail's first
	switch {
	case offsets && r > 1:
		top := uint64(1)<<(w-1) | uint64(rng.Int63n(int64(1)<<(w-1)))
		top = min(max(top, uint64(r-1)), 1<<32-1<<20)
		seen := map[uint64]bool{top: true}
		for len(seen) < r-1 {
			seen[1+uint64(rng.Int63n(int64(top-1)))] = true
		}
		for o := range seen {
			rel = append(rel, o)
		}
		slices.Sort(rel)
	case r > 1:
		// The w-bit gap stays under 2^(w−1) + 2^29 and the others sum
		// under 2^30, so the tail spans less than 2^32 − 2^29.
		limit := min(uint64(1)<<w-1, (1<<30)/uint64(r))
		wide := 1 + rng.Intn(r-1)
		for i := 1; i < r; i++ {
			g := 1 + uint64(rng.Int63n(int64(limit)))
			if i == wide {
				g = uint64(1)<<(w-1) | uint64(rng.Int63n(int64(1)<<min(w-1, 29)))
			}
			rel = append(rel, rel[i-1]+g)
		}
	}
	first := uint32(1<<32 - 1 - rel[r-1])
	vals = make([]uint32, 0, BlockSize+r)
	v := first - BlockSize*100
	for i := 0; i < BlockSize; i++ {
		vals = append(vals, v)
		v += 1 + uint32(rng.Intn(99))
	}
	for _, x := range rel {
		vals = append(vals, first+uint32(x))
	}
	return vals, true
}

// blockedFlags returns the offset of a Blocked blob's flags byte and
// of its payload: tag, u32 count, name, flags, size, skips, length.
func blockedFlags(blob []byte) (flagsAt, payloadAt int) {
	flagsAt = 6 + int(blob[5])
	skips := int(binary.LittleEndian.Uint32(blob[flagsAt+2:]))
	return flagsAt, flagsAt + 6 + 8*skips + 4
}

// TestBlockedVBTail: the four padding codecs VB-code a short last block
// exactly when VB is smaller than the packed block, at every tail length
// and at widths from 0 to 32, and every reader of the frame — Decode,
// the skipping iterator, DecodeBlock and the stored posting — returns
// the list.
func TestBlockedVBTail(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	vbTails, packedTails := 0, 0
	for _, bc := range paddingCodecs {
		_, offsets := bc.(simdBP128StarBlock)
		for r := 1; r < BlockSize; r++ {
			for _, w := range vbTailWidths {
				vals, ok := vbTailList(rng, r, w, offsets)
				if !ok {
					continue
				}
				name := fmt.Sprintf("%s r=%d w=%d", bc.Name(), r, w)
				tail := vals[BlockSize:]
				vb := len(vbBlock{}.EncodeBlock(nil, tail))
				packed := len(bc.EncodeBlock(nil, tail))
				if vbSize(tail) != vb {
					t.Fatalf("%s: vbSize %d, VB encodes %d bytes", name, vbSize(tail), vb)
				}
				p, err := Blocked{BC: bc}.Compress(vals)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				lp := p.(*listPosting)
				if lp.vbTail != (vb < packed) {
					t.Fatalf("%s: VB tail %v with VB %d bytes and packed %d", name, lp.vbTail, vb, packed)
				}
				if off := int(lp.skips[1].offset); len(lp.data)-off != min(vb, packed) {
					t.Fatalf("%s: tail of %d bytes, want %d", name, len(lp.data)-off, min(vb, packed))
				}
				if lp.vbTail {
					vbTails++
				} else {
					packedTails++
				}
				checkVBTailReaders(t, name, bc, p, vals)
			}
		}
	}
	// Both outcomes must occur, or the cases above test one branch.
	if vbTails == 0 || packedTails == 0 {
		t.Fatalf("%d VB tails and %d packed tails", vbTails, packedTails)
	}
}

// checkVBTailReaders reads p back through every path the frame serves.
func checkVBTailReaders(t *testing.T, name string, bc BlockCodec, p core.Posting, vals []uint32) {
	t.Helper()
	blob, err := p.(*listPosting).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Blocked.Decode is what codecs.Decode dispatches a Blocked blob to.
	q, err := Blocked{}.Decode(blob)
	if err != nil {
		t.Fatalf("%s: Decode: %v", name, err)
	}
	if !equalU32(q.Decompress(), vals) {
		t.Fatalf("%s: Decode round trip differs", name)
	}
	if again, _ := q.(*listPosting).MarshalBinary(); string(again) != string(blob) {
		t.Fatalf("%s: re-marshalled blob differs", name)
	}
	tail := vals[BlockSize:]
	var buf [BlockSize]uint32
	if got := q.(core.BlockDecoder).DecodeBlock(1, buf[:]); !equalU32(got, tail) {
		t.Fatalf("%s: DecodeBlock(1) = %v, want %v", name, got, tail)
	}
	// Seek to every tail value and past it from one iterator, then to
	// each tail value from a fresh one.
	it := q.(core.Seeker).Iterator()
	for i, v := range tail {
		if got, ok := it.SeekGEQ(v); !ok || got != v {
			t.Fatalf("%s: SeekGEQ(%d) = %d, %v", name, v, got, ok)
		}
		if i+1 < len(tail) && tail[i+1] > v+1 {
			if got, ok := it.SeekGEQ(v + 1); !ok || got != tail[i+1] {
				t.Fatalf("%s: SeekGEQ(%d) = %d, %v, want %d", name, v+1, got, ok, tail[i+1])
			}
		}
	}
	for _, v := range []uint32{vals[BlockSize-1] + 1, tail[len(tail)/2], 1<<32 - 1} {
		if got, ok := q.(core.Seeker).Iterator().SeekGEQ(v); !ok || got < v || got > v && got != tail[0] {
			t.Fatalf("%s: fresh SeekGEQ(%d) = %d, %v", name, v, got, ok)
		}
	}
	var cf *countingFetcher
	sp, err := Blocked{BC: bc}.CompressStored(vals, func(payload []byte) Fetcher {
		cf = &countingFetcher{data: payload}
		return cf
	})
	if err != nil {
		t.Fatal(err)
	}
	if !equalU32(sp.Decompress(), vals) {
		t.Fatalf("%s: stored round trip differs", name)
	}
	cf.fetches = nil
	if got, ok := sp.(core.Seeker).Iterator().SeekGEQ(1<<32 - 1); !ok || got != 1<<32-1 {
		t.Fatalf("%s: stored SeekGEQ(2^32-1) = %d, %v", name, got, ok)
	}
	if off := int(p.(*listPosting).skips[1].offset); len(cf.fetches) != 1 || cf.fetches[0] != off {
		t.Fatalf("%s: stored seek fetched %v, want the tail at %d", name, cf.fetches, off)
	}
}

// TestBlockedVBTailCorrupt: a VB tail that is cut short, or ends on a
// continuation byte, is ErrBadFormat; so is a flags byte with a bit
// above 1, or bit 1 on a frame the encoder never marks.
func TestBlockedVBTailCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	vals, _ := vbTailList(rng, 40, 13, false)
	p := mustCompress(t, Blocked{BC: simdPFDStarBlock{}}, vals)
	if !p.(*listPosting).vbTail {
		t.Fatal("fixture has no VB tail")
	}
	blob, _ := p.(*listPosting).MarshalBinary()
	flagsAt, payloadAt := blockedFlags(blob)
	if blob[flagsAt] != 2 {
		t.Fatalf("flags 0x%02x, want 0x02", blob[flagsAt])
	}
	withPayload := func(payload []byte) []byte {
		out := append([]byte(nil), blob[:payloadAt]...)
		binary.LittleEndian.PutUint32(out[payloadAt-4:], uint32(len(payload)))
		return append(out, payload...)
	}
	payload := blob[payloadAt:]
	cases := map[string][]byte{
		"truncated tail":        withPayload(payload[:len(payload)-1]),
		"tail ends mid-value":   withPayload(append(append([]byte(nil), payload[:len(payload)-1]...), payload[len(payload)-1]|0x80)),
		"continuation appended": withPayload(append(append([]byte(nil), payload...), 0x81)),
		"value appended":        withPayload(append(append([]byte(nil), payload...), 0x01)),
	}
	for bit := 2; bit < 8; bit++ {
		bad := append([]byte(nil), blob...)
		bad[flagsAt] |= 1 << bit
		cases[fmt.Sprintf("flags bit %d", bit)] = bad
	}
	// Bit 1 where the encoder never sets it: a whole last block, and a
	// codec that does not pad.
	for name, q := range map[string]core.Posting{
		"a whole last block": mustCompress(t, Blocked{BC: simdBP128Block{}}, vals[:BlockSize]),
		"VB":                 mustCompress(t, Blocked{BC: vbBlock{}}, vals),
	} {
		bad, _ := q.(*listPosting).MarshalBinary()
		fa, _ := blockedFlags(bad)
		bad[fa] |= 2
		cases["bit 1 on "+name] = bad
	}
	for name, bad := range cases {
		if _, err := (Blocked{}).Decode(bad); !errors.Is(err, core.ErrBadFormat) {
			t.Errorf("%s: Decode = %v, want ErrBadFormat", name, err)
		}
	}
}

// identityLists are the inputs of TestBlockedVBTailParentBytes: short,
// whole-block and partial-block lists at three gap ranges.
func identityLists() [][]uint32 {
	rng := rand.New(rand.NewSource(2017))
	var lists [][]uint32
	for _, n := range []int{1, 2, 127, 128, 129, 200, 256, 1000} {
		for _, maxGap := range []int64{1, 300, 1 << 20} {
			vals := make([]uint32, n)
			v := uint32(rng.Intn(1000))
			for i := range vals {
				vals[i] = v
				v += 1 + uint32(rng.Int63n(maxGap))
			}
			lists = append(lists, vals)
		}
	}
	return lists
}

// TestBlockedVBTailParentBytes: every codec that does not pad, the
// no-skip and block-size ablations, and the padding codecs on lists of
// whole blocks encode byte for byte as they did before VB tails. The
// digests are the first 16 bytes of SHA-256 over the concatenated
// MarshalBinary output of identityLists, taken at commit 437f503.
func TestBlockedVBTailParentBytes(t *testing.T) {
	want := []struct {
		name   string
		c      core.Codec
		digest string
	}{
		{"VB", NewVB(), "723cdd847d6fa8121be1107d0b90ce3b"},
		{"GroupVB", NewGroupVB(), "1aacc8b08890303658b2f4e6a96b087c"},
		{"Simple9", NewSimple9(), "7fbdfa984f7abaabb162b52757b90140"},
		{"Simple16", NewSimple16(), "90f27f423c4a8432ae545e89f8bf9a28"},
		{"Simple8b", NewSimple8b(), "0b95812fe1f9bbdeebd2557b84247bd3"},
		{"PforDelta", NewPforDeltaCodec(), "13531bb5649c10187f53df9d4415294f"},
		{"NewPforDelta", NewNewPforDelta(), "ab69a00bea19e77d88d87b806088eef4"},
		{"OptPforDelta", NewOptPforDelta(), "2ee449a1b47a0ffb8ecc95fe810a9835"},
		{"PforDelta*", NewPforDeltaStar(), "93fcb40b9b3d5a6145c6d8e0f3b6205e"},
		{"VB-noskip", NewBlockedNoSkips(VBBlock()), "2a434ee52abe0efba97ebd30262757ba"},
		{"VB/size=16", NewBlockedSize(VBBlock(), 16), "824199700080d8f1ad67986e37cf8925"},
		{"VB/size=32", NewBlockedSize(VBBlock(), 32), "44e8b4cb7317edd0296cb21050f24305"},
		{"PforDelta*/size=16", NewBlockedSize(PforDeltaStarBlock(), 16), "6207ddc77ec18e54ee5589b14f29c237"},
		{"PforDelta*/size=64", NewBlockedSize(PforDeltaStarBlock(), 64), "4fabdb0db0a92edb7b6823955dfd79d2"},
		{"SIMDBP128/whole", NewSIMDBP128(), "53716d97baad57dc21044da4777306da"},
		{"SIMDBP128*/whole", NewSIMDBP128Star(), "6d88e7954440141d6e3271bf86036276"},
		{"SIMDPforDelta/whole", NewSIMDPforDelta(), "0fd1df9ae6ca06a1dffaccb23a577314"},
		{"SIMDPforDelta*/whole", NewSIMDPforDeltaStar(), "f620c4b8d41db6b236dac5839408b08d"},
	}
	lists := identityLists()
	for _, w := range want {
		_, pads := w.c.(Blocked)
		pads = pads && padsPartialBlock(w.c.(Blocked).BC)
		h := sha256.New()
		for _, vals := range lists {
			if pads && len(vals)%BlockSize != 0 {
				continue
			}
			p, err := w.c.Compress(vals)
			if err != nil {
				t.Fatal(err)
			}
			blob, _ := p.(*listPosting).MarshalBinary()
			h.Write(blob)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil))[:32]; got != w.digest {
			t.Errorf("%s: digest %s, want %s", w.name, got, w.digest)
		}
	}
}

func mustCompress(t *testing.T, c core.Codec, vals []uint32) core.Posting {
	t.Helper()
	p, err := c.Compress(vals)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
