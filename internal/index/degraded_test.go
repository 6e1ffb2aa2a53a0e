package index

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// writeTemp3 lands file bytes on disk for OpenFileDegraded.
func writeTemp3(t *testing.T, file []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "idx.bvix3")
	if err := os.WriteFile(p, file, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// sectionOffsets reads the three section (offset, length) pairs out of
// a BVIX3 header.
func sectionOffsets(file []byte) (secs [3][2]uint64) {
	for i := range secs {
		p := 24 + i*20
		secs[i] = [2]uint64{
			binary.LittleEndian.Uint64(file[p:]),
			binary.LittleEndian.Uint64(file[p+8:]),
		}
	}
	return secs
}

// dictRecordOffsets walks the dict section of a pristine file and
// returns each record's dict offset plus its parsed form.
func dictRecordOffsets(t *testing.T, file []byte) (offs []int, recs []dictRecord) {
	t.Helper()
	g, err := parseBVIX3(file)
	if err != nil {
		t.Fatal(err)
	}
	cur := 0
	for i := 0; i < g.terms; i++ {
		rec, err := parseDictRecord(g.dict, cur)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, cur)
		recs = append(recs, rec)
		cur = rec.next
	}
	return offs, recs
}

func TestDegradedOpenCleanFileIsNotDegraded(t *testing.T) {
	idx := buildWideIndex(t, "Roaring", 1)
	p := writeTemp3(t, serialize3(t, idx))
	got, err := OpenFileDegraded(p)
	if err != nil {
		t.Fatal(err)
	}
	defer got.Close()
	if h := got.Health(); h.Degraded || h.QuarantinedTerms != 0 || len(h.QuarantinedSections) != 0 {
		t.Fatalf("clean file reported degraded health: %+v", h)
	}
	if got.Terms() != idx.Terms() {
		t.Fatalf("clean degraded open served %d terms, want %d", got.Terms(), idx.Terms())
	}
}

// TestDegradedOpenFramesCorrupt: the frames section is redundant, so
// its corruption costs nothing — every term still serves, health says
// degraded with the frames section quarantined.
func TestDegradedOpenFramesCorrupt(t *testing.T) {
	idx := buildWideIndex(t, "Roaring", 1)
	file := serialize3(t, idx)
	secs := sectionOffsets(file)
	file[secs[1][0]+3] ^= 0x40 // flip a bit mid-frames

	if _, err := OpenFile(writeTemp3(t, file)); err == nil {
		t.Fatal("strict open accepted a corrupt frames section")
	}
	got, err := OpenFileDegraded(writeTemp3(t, file))
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer got.Close()
	h := got.Health()
	if !h.Degraded || !reflect.DeepEqual(h.QuarantinedSections, []string{"frames"}) || h.QuarantinedTerms != 0 {
		t.Fatalf("health = %+v, want degraded with only frames quarantined", h)
	}
	if got.Terms() != idx.Terms() {
		t.Fatalf("served %d terms, want all %d", got.Terms(), idx.Terms())
	}
	names, _, err := idx.sortedEntries()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if !reflect.DeepEqual(got.DecodedPostings(name), idx.DecodedPostings(name)) {
			t.Fatalf("term %q served wrong postings from rebuilt frames", name)
		}
	}
}

// TestDegradedOpenDictCorrupt: a violated record cuts the dictionary
// at that point; the prefix serves, the tail is quarantined.
func TestDegradedOpenDictCorrupt(t *testing.T) {
	idx := buildWideIndex(t, "Roaring", 1)
	file := serialize3(t, idx)
	offs, recs := dictRecordOffsets(t, file)
	cut := len(offs) / 2
	// Blow up record `cut`'s posting count: count > docs is a walk
	// violation, so the salvaged prefix ends exactly there.
	secs := sectionOffsets(file)
	countOff := secs[0][0] + uint64(offs[cut]) + 2 + uint64(len(recs[cut].name))
	binary.LittleEndian.PutUint32(file[countOff:], 0xFFFFFFFF)

	if _, err := OpenFile(writeTemp3(t, file)); err == nil {
		t.Fatal("strict open accepted a corrupt dict section")
	}
	got, err := OpenFileDegraded(writeTemp3(t, file))
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer got.Close()
	h := got.Health()
	if !h.Degraded || !reflect.DeepEqual(h.QuarantinedSections, []string{"dict"}) {
		t.Fatalf("health = %+v, want degraded with dict quarantined", h)
	}
	if want := len(offs) - cut; h.QuarantinedTerms != want {
		t.Fatalf("quarantined %d terms, want %d", h.QuarantinedTerms, want)
	}
	if got.Terms() != cut {
		t.Fatalf("served %d terms, want the %d-term prefix", got.Terms(), cut)
	}
	for i, rec := range recs {
		name := string(rec.name)
		postings := got.DecodedPostings(name)
		if i < cut {
			if !reflect.DeepEqual(postings, idx.DecodedPostings(name)) {
				t.Fatalf("prefix term %q served wrong postings", name)
			}
		} else if len(postings) != 0 {
			t.Fatalf("quarantined term %q served %d postings", name, len(postings))
		}
	}
}

// TestDegradedOpenPayloadCorrupt: damage inside one term's posting
// blob quarantines that term alone; every other term still serves
// verified decodes.
func TestDegradedOpenPayloadCorrupt(t *testing.T) {
	idx := buildWideIndex(t, "Roaring", 1)
	file := serialize3(t, idx)
	offs, recs := dictRecordOffsets(t, file)
	_ = offs
	victim := len(recs) / 3
	secs := sectionOffsets(file)
	// Zero the victim's whole posting blob: guaranteed to no longer
	// decode as a valid self-describing posting of the declared count.
	blobStart := secs[2][0] + recs[victim].payOff
	for i := uint64(0); i < uint64(recs[victim].postLen); i++ {
		file[blobStart+i] = 0
	}

	if _, err := OpenFile(writeTemp3(t, file)); err == nil {
		t.Fatal("strict open accepted a corrupt payload section")
	}
	got, err := OpenFileDegraded(writeTemp3(t, file))
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer got.Close()
	h := got.Health()
	if !h.Degraded || !reflect.DeepEqual(h.QuarantinedSections, []string{"payload"}) {
		t.Fatalf("health = %+v, want degraded with payload quarantined", h)
	}
	if h.QuarantinedTerms != 1 {
		t.Fatalf("quarantined %d terms, want exactly the victim", h.QuarantinedTerms)
	}
	if got.Terms() != idx.Terms()-1 {
		t.Fatalf("served %d terms, want %d", got.Terms(), idx.Terms()-1)
	}
	for i, rec := range recs {
		name := string(rec.name)
		postings := got.DecodedPostings(name)
		if i == victim {
			if len(postings) != 0 {
				t.Fatalf("quarantined term %q served %d postings", name, len(postings))
			}
			continue
		}
		if !reflect.DeepEqual(postings, idx.DecodedPostings(name)) {
			t.Fatalf("surviving term %q served wrong postings", name)
		}
	}
}

// TestDegradedOpenHeaderCorrupt: no salvage without a trustworthy
// header.
func TestDegradedOpenHeaderCorrupt(t *testing.T) {
	file := serialize3(t, buildTestIndex(t, "Roaring"))
	file[10] ^= 0x01 // doc count byte, inside the header CRC
	if _, err := OpenFileDegraded(writeTemp3(t, file)); err == nil {
		t.Fatal("degraded open accepted a corrupt header")
	}
}

// TestDegradedRebuildRunbook: WriteTo/WriteFile on a degraded index
// persists exactly the servable terms — the documented path from a
// damaged index back to a fully verified one.
func TestDegradedRebuildRunbook(t *testing.T) {
	idx := buildWideIndex(t, "Roaring", 1)
	file := serialize3(t, idx)
	_, recs := dictRecordOffsets(t, file)
	victim := 1
	secs := sectionOffsets(file)
	blobStart := secs[2][0] + recs[victim].payOff
	for i := uint64(0); i < uint64(recs[victim].postLen); i++ {
		file[blobStart+i] = 0
	}
	degraded, err := OpenFileDegraded(writeTemp3(t, file))
	if err != nil {
		t.Fatal(err)
	}
	defer degraded.Close()

	rebuilt := filepath.Join(t.TempDir(), "rebuilt.bvix3")
	if err := degraded.WriteFile(rebuilt, FormatBVIX3); err != nil {
		t.Fatalf("rebuilding from degraded index: %v", err)
	}
	clean, err := OpenFile(rebuilt)
	if err != nil {
		t.Fatalf("rebuilt index does not open strictly: %v", err)
	}
	defer clean.Close()
	if h := clean.Health(); h.Degraded {
		t.Fatalf("rebuilt index still degraded: %+v", h)
	}
	if clean.Terms() != idx.Terms()-1 {
		t.Fatalf("rebuilt index has %d terms, want %d", clean.Terms(), idx.Terms()-1)
	}
	var buf bytes.Buffer
	if _, err := degraded.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo from degraded index: %v", err)
	}
}
