package iosim

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/intlist"
	"repro/internal/ops"
)

func TestStoredListRoundTrip(t *testing.T) {
	d := NewDisk(80, 0.25)
	vals := gen.Uniform(5000, 1<<20, 1)
	p, err := StoreList(d, intlist.Blocked{BC: intlist.VBBlock()}, vals)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Decompress()
	if len(got) != len(vals) {
		t.Fatalf("decompress lost values: %d != %d", len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}
	reads, bytes, cost := d.Stats()
	if reads == 0 || bytes == 0 || cost <= 0 {
		t.Fatalf("full decompress should hit the disk: %d reads %d bytes %.1f us",
			reads, bytes, cost)
	}
}

// TestSkipPointersSaveIO is the point of the whole simulation: a skewed
// SvS intersection over stored lists fetches far fewer bytes than the
// full payload, while the no-skip configuration reads everything up to
// the last probe.
func TestSkipPointersSaveIO(t *testing.T) {
	short := gen.Uniform(20, 1<<22, 2)
	long := gen.Uniform(200000, 1<<22, 3)

	d1 := NewDisk(80, 0.25)
	ps, err := StoreList(d1, intlist.Blocked{BC: intlist.VBBlock()}, short)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := StoreList(d1, intlist.Blocked{BC: intlist.VBBlock()}, long)
	if err != nil {
		t.Fatal(err)
	}
	payload := pl.SizeBytes()
	d1.Reset()
	want := ops.IntersectSorted(short, long)
	got, err := ops.Intersect([]core.Posting{ps, pl})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("intersection wrong: %d != %d", len(got), len(want))
	}
	_, bytesSkip, _ := d1.Stats()
	if bytesSkip >= int64(payload)/2 {
		t.Errorf("skip probes fetched %d of %d payload bytes; expected a small fraction",
			bytesSkip, payload)
	}

	// Without skips, the sequential walk reads essentially everything.
	d2 := NewDisk(80, 0.25)
	ps2, _ := StoreList(d2, intlist.Blocked{BC: intlist.VBBlock(), NoSkips: true}, short)
	pl2, _ := StoreList(d2, intlist.Blocked{BC: intlist.VBBlock(), NoSkips: true}, long)
	d2.Reset()
	if _, err := ops.Intersect([]core.Posting{ps2, pl2}); err != nil {
		t.Fatal(err)
	}
	_, bytesNoSkip, _ := d2.Stats()
	if bytesNoSkip <= 2*bytesSkip {
		t.Errorf("no-skip I/O (%d B) should far exceed skip I/O (%d B)",
			bytesNoSkip, bytesSkip)
	}
}

// TestStoredWholeBitmapIO: bitmap AND must fetch both full payloads.
func TestStoredWholeBitmapIO(t *testing.T) {
	d := NewDisk(80, 0.25)
	a := gen.Uniform(2000, 1<<18, 4)
	b := gen.Uniform(30000, 1<<18, 5)
	pa, err := bitmap.NewWAH().Compress(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := bitmap.NewWAH().Compress(b)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := StoreWhole(d, pa)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := StoreWhole(d, pb)
	if err != nil {
		t.Fatal(err)
	}
	d.Reset()
	got, err := ops.Intersect([]core.Posting{sa, sb})
	if err != nil {
		t.Fatal(err)
	}
	want := ops.IntersectSorted(a, b)
	if len(got) != len(want) {
		t.Fatalf("intersection wrong: %d != %d", len(got), len(want))
	}
	_, bytes, _ := d.Stats()
	if bytes != int64(sa.SizeBytes()+sb.SizeBytes()) {
		t.Errorf("bitmap AND fetched %d bytes, want the full %d",
			bytes, sa.SizeBytes()+sb.SizeBytes())
	}
	// Union accounting too.
	d.Reset()
	if _, err := ops.Union([]core.Posting{sa, sb}); err != nil {
		t.Fatal(err)
	}
	if _, bytes, _ := d.Stats(); bytes == 0 {
		t.Error("union should hit the disk")
	}
}

func TestDiskCostModel(t *testing.T) {
	d := NewDisk(100, 10)
	d.account(1024)
	d.account(2048)
	reads, bytes, cost := d.Stats()
	if reads != 2 || bytes != 3072 {
		t.Fatalf("stats = %d reads %d bytes", reads, bytes)
	}
	want := 2*100.0 + 3.0*10
	if cost != want {
		t.Fatalf("cost = %.2f, want %.2f", cost, want)
	}
	d.Reset()
	if r, b, c := d.Stats(); r != 0 || b != 0 || c != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestStoreWholeRejectsUnserializable(t *testing.T) {
	d := NewDisk(1, 1)
	if _, err := StoreWhole(d, fakePosting{}); err == nil {
		t.Fatal("expected error for unserializable posting")
	}
}

type fakePosting struct{}

func (fakePosting) Len() int                               { return 0 }
func (fakePosting) SizeBytes() int                         { return 0 }
func (fakePosting) Decompress() []uint32                   { return nil }
func (fakePosting) DecompressAppend(dst []uint32) []uint32 { return dst }
