package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
)

// hybridDocs extends the wide corpus with terms that pull the adaptive
// builder into every decision class: "the" in every doc (dense, one
// run), "data" in 2 of 5 docs (dense, scattered), "zz" piled into the
// first ten docs plus a far outlier (sparse, zipf-like); the w#### tail
// terms stay sparse and spread (SIMDBP128*).
func hybridDocs(n int) []string {
	docs := wideDocs(n)
	for i := range docs {
		docs[i] = "the " + docs[i]
		if i%5 == 0 || i%5 == 2 {
			docs[i] += " data"
		}
		if i < 10 || i == n-1 {
			docs[i] += " zz"
		}
	}
	return docs
}

func buildAutoIndex(t testing.TB, shards int) *Index {
	t.Helper()
	b := NewAutoBuilder()
	b.SetShards(shards)
	for _, d := range hybridDocs(400) {
		b.AddDocument(d)
	}
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestAutoBuildCodecMix(t *testing.T) {
	idx := buildAutoIndex(t, 1)
	for term, want := range map[string]string{
		"the":  "Roaring+Run",
		"data": "Roaring",
		"zz":   "SIMDPforDelta*",
	} {
		if got := idx.TermCodec(term); got != want {
			t.Errorf("TermCodec(%q) = %q, want %q", term, got, want)
		}
	}
	mix := idx.CodecMix()
	for _, name := range []string{"Roaring+Run", "Roaring", "SIMDPforDelta*", "SIMDBP128*"} {
		if mix[name] == 0 {
			t.Errorf("codec mix %v missing %s", mix, name)
		}
	}
}

// TestAutoBuildShardIdentity: selection is a pure function of the
// final merged list, so the serialized index must be byte-identical
// for any shard count.
func TestAutoBuildShardIdentity(t *testing.T) {
	want := serialize3(t, buildAutoIndex(t, 1))
	for _, shards := range []int{2, 3, 8} {
		got := serialize3(t, buildAutoIndex(t, shards))
		if !bytes.Equal(got, want) {
			t.Fatalf("auto build with %d shards differs from 1-shard build (%d vs %d bytes)",
				shards, len(got), len(want))
		}
	}
}

// TestAutoBuildQueryEquivalence: the hybrid index must answer exactly
// like a mono-codec index over the same corpus — in memory and through
// a BVIX3 reopen.
func TestAutoBuildQueryEquivalence(t *testing.T) {
	auto := buildAutoIndex(t, 1)
	codec, err := codecs.ByName("Roaring")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(codec)
	for _, d := range hybridDocs(400) {
		b.AddDocument(d)
	}
	mono, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	lazy := openLazy(t, auto)
	defer lazy.Close()

	queries := [][]string{
		{"the", "data"}, {"the", "zz"}, {"data", "w0001"},
		{"w0001", "w0002"}, {"the", "data", "zz"},
	}
	for _, q := range queries {
		want, err := mono.Conjunctive(q...)
		if err != nil {
			t.Fatal(err)
		}
		for name, idx := range map[string]*Index{"auto": auto, "bvix3": lazy} {
			got, err := idx.Conjunctive(q...)
			if err != nil {
				t.Fatalf("%s: AND%v: %v", name, q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: AND%v = %v, want %v", name, q, got, want)
			}
			gotOr, err := idx.Disjunctive(q...)
			if err != nil {
				t.Fatalf("%s: OR%v: %v", name, q, err)
			}
			wantOr, err := mono.Disjunctive(q...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotOr, wantOr) {
				t.Fatalf("%s: OR%v = %v, want %v", name, q, gotOr, wantOr)
			}
		}
	}
}

// TestHybridCodecPersistence: the per-term codec survives the BVIX3
// write/reopen cycle, readable from the dict bytes alone.
func TestHybridCodecPersistence(t *testing.T) {
	idx := buildAutoIndex(t, 1)
	lazy := openLazy(t, idx)
	defer lazy.Close()
	if got, want := lazy.CodecMix(), idx.CodecMix(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened codec mix %v, want %v", got, want)
	}
	for _, term := range []string{"the", "data", "zz", "w0001"} {
		if got, want := lazy.TermCodec(term), idx.TermCodec(term); got != want {
			t.Errorf("reopened TermCodec(%q) = %q, want %q", term, got, want)
		}
	}
}

// resealDict recomputes the dict section CRC and the header CRC after a
// test mutated dict bytes, so the walk-level validation is reachable.
func resealDict(file []byte) {
	secs := sectionOffsets(file)
	binary.LittleEndian.PutUint32(file[24+16:],
		crc32.Checksum(file[secs[0][0]:secs[0][0]+secs[0][1]], castagnoli))
	reseal3Header(file)
}

// codecByteOffsets returns every record's codec-byte file offset,
// computed from the pristine file (parseBVIX3 validates CRCs, so
// offsets must be collected before any mutation).
func codecByteOffsets(t *testing.T, file []byte) []uint64 {
	t.Helper()
	offs, recs := dictRecordOffsets(t, file)
	secs := sectionOffsets(file)
	out := make([]uint64, len(offs))
	for k := range offs {
		out[k] = secs[0][0] + uint64(offs[k]) + 2 + uint64(len(recs[k].name)) + 20
	}
	return out
}

// TestBVIX3CodecByteOutOfRange: a codec byte above the registry is a
// walk violation. With CRCs resealed (the byte itself is the damage)
// every open path refuses with core.ErrBadFormat — a violation behind
// intact checksums is beyond what degraded mode may reason about. With
// the dict CRC left stale, degraded open cuts the dict at the bad
// record and serves the prefix.
func TestBVIX3CodecByteOutOfRange(t *testing.T) {
	idx := buildAutoIndex(t, 1)
	pristine := serialize3(t, idx)
	offs, _ := dictRecordOffsets(t, pristine)
	byteOffs := codecByteOffsets(t, pristine)
	k := len(offs) / 2

	// Resealed: the byte is the only damage, all checksums valid.
	file := append([]byte(nil), pristine...)
	file[byteOffs[k]] = codecs.MaxID() + 7
	resealDict(file)
	if _, err := OpenFile(writeTemp3(t, file)); !errors.Is(err, core.ErrBadFormat) {
		t.Fatalf("strict open: got %v, want ErrBadFormat", err)
	}
	if _, err := Read(bytes.NewReader(file)); !errors.Is(err, core.ErrBadFormat) {
		t.Fatalf("eager read: got %v, want ErrBadFormat", err)
	}
	if _, err := OpenFileDegraded(writeTemp3(t, file)); err == nil {
		t.Fatal("degraded open accepted a walk violation behind intact checksums")
	}

	// Stale dict CRC: classic corruption — degraded open salvages the
	// prefix before the bad record.
	file = append([]byte(nil), pristine...)
	file[byteOffs[k]] = codecs.MaxID() + 7
	got, err := OpenFileDegraded(writeTemp3(t, file))
	if err != nil {
		t.Fatalf("degraded open: %v", err)
	}
	defer got.Close()
	h := got.Health()
	if !h.Degraded || h.QuarantinedTerms != len(offs)-k {
		t.Fatalf("health = %+v, want %d quarantined terms", h, len(offs)-k)
	}
	if got.Terms() != k {
		t.Fatalf("served %d terms, want prefix of %d", got.Terms(), k)
	}
}

// TestBVIX3CodecByteMismatch: a codec byte that names a registry codec
// other than the blob's passes the dict walk but is caught at
// materialize time — eager reads fail with core.ErrBadFormat; a lazy
// open serves every other term and reports the poisoned one absent.
func TestBVIX3CodecByteMismatch(t *testing.T) {
	idx := buildAutoIndex(t, 1)
	file := serialize3(t, idx)
	offs, recs := dictRecordOffsets(t, file)
	k := len(offs) / 3
	name := string(recs[k].name)
	wrong := recs[k].codec%codecs.MaxID() + 1 // valid ID, != recs[k].codec
	if wrong == recs[k].codec {
		t.Fatal("fixture bug: wrong ID equals original")
	}
	file[codecByteOffsets(t, file)[k]] = wrong
	resealDict(file)

	if _, err := Read(bytes.NewReader(file)); !errors.Is(err, core.ErrBadFormat) {
		t.Fatalf("eager read: got %v, want ErrBadFormat", err)
	}
	got, err := OpenFile(writeTemp3(t, file))
	if err != nil {
		t.Fatalf("lazy open: %v", err)
	}
	defer got.Close()
	if len(idx.DecodedPostings(name)) == 0 {
		t.Fatalf("fixture bug: term %q empty before poisoning", name)
	}
	if ps := got.DecodedPostings(name); len(ps) != 0 {
		t.Fatalf("poisoned term %q served postings %v", name, ps)
	}
	other := string(recs[0].name)
	if ps := got.DecodedPostings(other); !reflect.DeepEqual(ps, idx.DecodedPostings(other)) {
		t.Fatalf("healthy term %q served wrong postings", other)
	}
}

// TestBVIX3ZeroCodecByteLegal: 0 (unspecified) is legal everywhere —
// pre-adaptive writers never recorded a codec.
func TestBVIX3ZeroCodecByteLegal(t *testing.T) {
	idx := buildAutoIndex(t, 1)
	file := serialize3(t, idx)
	offs, _ := dictRecordOffsets(t, file)
	for _, off := range codecByteOffsets(t, file) {
		file[off] = 0
	}
	resealDict(file)

	p := writeTemp3(t, file)
	got, err := OpenFile(p)
	if err != nil {
		t.Fatalf("strict open rejected zero codec bytes: %v", err)
	}
	defer got.Close()
	want, err := idx.Conjunctive("the", "data")
	if err != nil {
		t.Fatal(err)
	}
	res, err := got.Conjunctive("the", "data")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatalf("zero-codec-byte index answered %v, want %v", res, want)
	}
	// The codec is still identifiable from the blob at materialize time.
	if c := got.TermCodec("the"); c != "Roaring+Run" {
		t.Errorf("TermCodec with zero byte = %q, want blob-identified Roaring+Run", c)
	}
	// But the dict-bytes-only mix reports them unrecorded.
	if mix := got.CodecMix(); mix[""] != len(offs) {
		t.Errorf("codec mix %v, want all %d terms unrecorded", mix, len(offs))
	}
}
