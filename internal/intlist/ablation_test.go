package intlist

import (
	"testing"

	"repro/internal/core"
)

// TestBlockSizeVariants: every supported block size round-trips and
// seeks correctly, and checks a gap-limited codec's gaps against its
// own blocks; out-of-range sizes are rejected.
func TestBlockSizeVariants(t *testing.T) {
	vals := growingGaps(1000)
	for _, size := range []int{2, 3, 16, 32, 64, 127, 128} {
		c := NewBlockedSize(VBBlock(), size)
		p, err := c.Compress(vals)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !equalU32(p.Decompress(), vals) {
			t.Errorf("size %d: round trip failed", size)
		}
		it := p.(core.Seeker).Iterator()
		if v, ok := it.SeekGEQ(vals[500]); !ok || v != vals[500] {
			t.Errorf("size %d: SeekGEQ failed: %d %v", size, v, ok)
		}
		// A gap past Simple9's limit is fine as a block's first value,
		// which its skip pointer carries, and refused inside a block.
		wide := make([]uint32, size+1)
		for i := range wide {
			wide[i] = uint32(i)
		}
		wide[size] = 1 << 30
		s9 := Blocked{BC: NewSimple9().(Blocked).BC, Size: size}
		if p, err := s9.Compress(wide); err != nil {
			t.Errorf("size %d: wide gap at a block start: %v", size, err)
		} else if !equalU32(p.Decompress(), wide) {
			t.Errorf("size %d: wide gap at a block start: round trip failed", size)
		}
		if _, err := s9.Compress(append(wide[:size-1:size-1], 1<<30)); err == nil {
			t.Errorf("size %d: wide gap inside a block: expected rejection", size)
		}
	}
	for _, size := range []int{1, -4, 129, 1000} {
		if _, err := NewBlockedSize(VBBlock(), size).Compress(vals); err == nil {
			t.Errorf("size %d: expected rejection", size)
		}
	}
}

// TestBlockSizeSpaceMonotonicity: smaller blocks cost more space (more
// skip pointers and headers) — the footnote-5 tradeoff.
func TestBlockSizeSpaceMonotonicity(t *testing.T) {
	vals := growingGaps(5000)
	prev := -1
	for _, size := range []int{16, 64, 128} {
		p, err := NewBlockedSize(PforDeltaStarBlock(), size).Compress(vals)
		if err != nil {
			t.Fatal(err)
		}
		if prev > 0 && p.SizeBytes() >= prev {
			t.Errorf("size %d: %d bytes should be below the smaller-block %d",
				size, p.SizeBytes(), prev)
		}
		prev = p.SizeBytes()
	}
}

// TestPforThresholdVariants: all thresholds round-trip; 1.0 produces no
// exceptions (same as PforDelta*'s width choice).
func TestPforThresholdVariants(t *testing.T) {
	vals := exceptionHeavy(2000)
	for _, frac := range []float64{0.5, 0.7, 0.9, 0.95, 1.0} {
		p, err := NewPforDeltaThreshold(frac).Compress(vals)
		if err != nil {
			t.Fatalf("frac %.2f: %v", frac, err)
		}
		if !equalU32(p.Decompress(), vals) {
			t.Errorf("frac %.2f: round trip failed", frac)
		}
	}
}

// TestBlockSizeSerializeRoundTrip: non-default block sizes survive
// serialization.
func TestBlockSizeSerializeRoundTrip(t *testing.T) {
	vals := growingGaps(700)
	c := NewBlockedSize(VBBlock(), 32)
	p, err := c.Compress(vals)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := p.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	q, err := (Blocked{}).Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !equalU32(q.Decompress(), vals) {
		t.Fatal("round trip through serialization failed")
	}
	if q.(*listPosting).bs != 32 {
		t.Fatalf("block size not preserved: %d", q.(*listPosting).bs)
	}
}
