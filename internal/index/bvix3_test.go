package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
)

// serialize3 captures WriteTo output.
func serialize3(t testing.TB, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := idx.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// openLazy writes idx as BVIX3 to a temp file and opens it through the
// mmap-backed lazy path.
func openLazy(t testing.TB, idx *Index) *Index {
	t.Helper()
	p := filepath.Join(t.TempDir(), "idx.bvix3")
	if err := os.WriteFile(p, serialize3(t, idx), 0o644); err != nil {
		t.Fatal(err)
	}
	lazy, err := OpenFile(p)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	return lazy
}

// reseal3Header recomputes the header checksum after a test mutated
// header bytes, so deeper validation layers stay reachable.
func reseal3Header(file []byte) {
	binary.LittleEndian.PutUint32(file[bvix3HeaderSize-4:],
		crc32.Checksum(file[len(bvix3Magic):bvix3HeaderSize-4], castagnoli))
}

// wideDocs builds a corpus whose vocabulary spans several skip frames
// (well over bvix3FrameLen terms) with repeated words for frequency
// payloads.
func wideDocs(n int) []string {
	rng := rand.New(rand.NewSource(7))
	docs := make([]string, n)
	for d := range docs {
		var sb strings.Builder
		for j := 0; j < 12; j++ {
			w := fmt.Sprintf("w%04d", rng.Intn(5*bvix3FrameLen))
			rep := 1 + rng.Intn(3)
			for r := 0; r < rep; r++ {
				sb.WriteString(w)
				sb.WriteByte(' ')
			}
		}
		docs[d] = sb.String()
	}
	return docs
}

func buildWideIndex(t testing.TB, codecName string, shards int) *Index {
	t.Helper()
	codec, err := codecs.ByName(codecName)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(codec)
	b.SetShards(shards)
	for _, d := range wideDocs(400) {
		b.AddDocument(d)
	}
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestBVIX3RoundTrip(t *testing.T) {
	for _, codecName := range []string{"Roaring", "PEF", "VB", "WAH"} {
		idx := buildTestIndex(t, codecName)
		file := serialize3(t, idx)

		eager, err := Read(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: eager Read: %v", codecName, err)
		}
		if eager.SizeBytes() != idx.SizeBytes() {
			t.Fatalf("%s: eager SizeBytes %d, want %d", codecName, eager.SizeBytes(), idx.SizeBytes())
		}
		lazy := openLazy(t, idx)
		if lazy.SizeBytes() < idx.SizeBytes() {
			t.Fatalf("%s: lazy SizeBytes %d below in-memory %d", codecName, lazy.SizeBytes(), idx.SizeBytes())
		}
		for _, loaded := range []*Index{eager, lazy} {
			if loaded.Docs() != idx.Docs() || loaded.Terms() != idx.Terms() {
				t.Fatalf("%s: loaded shape %d/%d, want %d/%d", codecName,
					loaded.Docs(), loaded.Terms(), idx.Docs(), idx.Terms())
			}
			and1, _ := idx.Conjunctive("compressed", "lists")
			and2, _ := loaded.Conjunctive("compressed", "lists")
			if !reflect.DeepEqual(and1, and2) {
				t.Fatalf("%s: conjunctive differs after reload: %v vs %v", codecName, and1, and2)
			}
			top1, _ := idx.TopK(3, "compressed")
			top2, _ := loaded.TopK(3, "compressed")
			if !reflect.DeepEqual(top1, top2) {
				t.Fatalf("%s: top-k differs after reload", codecName)
			}
		}
		if err := lazy.Close(); err != nil {
			t.Fatalf("%s: Close: %v", codecName, err)
		}
	}
}

// TestBVIX3ByteIdenticalAcrossShards is the determinism property the
// parallel build promises: any shard count produces the same file,
// byte for byte.
func TestBVIX3ByteIdenticalAcrossShards(t *testing.T) {
	ref := serialize3(t, buildWideIndex(t, "Roaring", 1))
	for _, shards := range []int{2, 3, 5, 8, 0} {
		got := serialize3(t, buildWideIndex(t, "Roaring", shards))
		if !bytes.Equal(ref, got) {
			t.Fatalf("shards=%d produced different bytes (%d vs %d)", shards, len(got), len(ref))
		}
	}
}

// TestBVIX3LazyEquivalence exercises the skip-frame lookup across a
// multi-frame dictionary: every indexed term materializes to the same
// postings as the in-memory index, and probes before, between, and
// after dictionary entries come back absent.
func TestBVIX3LazyEquivalence(t *testing.T) {
	idx := buildWideIndex(t, "Roaring", 3)
	if idx.Terms() <= 2*bvix3FrameLen {
		t.Fatalf("corpus too narrow for a multi-frame test: %d terms", idx.Terms())
	}
	lazy := openLazy(t, idx)
	defer lazy.Close()
	names, _, err := idx.sortedEntries()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		want := idx.DecodedPostings(name)
		got := lazy.DecodedPostings(name)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("term %q: lazy %v, want %v", name, got, want)
		}
		// Second hit serves the memoized entry.
		if again := lazy.DecodedPostings(name); !reflect.DeepEqual(want, again) {
			t.Fatalf("term %q: memoized lookup diverged", name)
		}
	}
	for _, probe := range []string{"", "a-before-everything", "w0000x", "zzzz-after-everything"} {
		if got := lazy.DecodedPostings(probe); len(got) != 0 {
			t.Fatalf("probe %q: got %d postings, want absent", probe, len(got))
		}
	}
}

func TestBVIX3LazyConcurrent(t *testing.T) {
	idx := buildWideIndex(t, "Roaring", 2)
	lazy := openLazy(t, idx)
	defer lazy.Close()
	names, _, err := idx.sortedEntries()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				name := names[rng.Intn(len(names))]
				if got := lazy.DecodedPostings(name); len(got) == 0 {
					t.Errorf("term %q: empty decode", name)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	// SizeBytes is fixed at open time; concurrent materialization must
	// not perturb it.
	if a, b := lazy.SizeBytes(), lazy.SizeBytes(); a != b || a <= 0 {
		t.Fatalf("SizeBytes unstable under concurrency: %d vs %d", a, b)
	}
}

// TestBVIX3RejectsBitFlips: every byte of the file is covered by a
// check. Flips inside the magic fail magic validation; flips in any
// padding byte fail the zeros check; flips anywhere else surface as
// core.ErrChecksum.
func TestBVIX3RejectsBitFlips(t *testing.T) {
	file := serialize3(t, buildTestIndex(t, "Roaring"))
	for i := range file {
		mut := make([]byte, len(file))
		copy(mut, file)
		mut[i] ^= 0x01
		_, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		if i == len(bvix3Magic) && errors.Is(err, core.ErrVersion) {
			continue // the version byte gates the header layout, so it is checked pre-CRC
		}
		if i >= len(bvix3Magic) && !errors.Is(err, core.ErrChecksum) &&
			!strings.Contains(err.Error(), "padding") {
			t.Fatalf("flip at byte %d: got %v, want ErrChecksum or a padding error", i, err)
		}
	}
}

func TestBVIX3TruncationAndTrailing(t *testing.T) {
	file := serialize3(t, buildTestIndex(t, "PEF"))
	for _, cut := range []int{0, 4, len(bvix3Magic), bvix3HeaderSize - 1, bvix3HeaderSize, bvix3DataStart, len(file) / 2, len(file) - 1} {
		if _, err := Read(bytes.NewReader(file[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if _, err := openBVIX3Lazy(file[:cut], nil); err == nil {
			t.Fatalf("lazy open of truncation at %d accepted", cut)
		}
	}
	trailing := append(append([]byte{}, file...), 0)
	if _, err := Read(bytes.NewReader(trailing)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestBVIX3UnsupportedVersion(t *testing.T) {
	file := serialize3(t, buildTestIndex(t, "VB"))
	file[len(bvix3Magic)] = 9
	reseal3Header(file)
	_, err := Read(bytes.NewReader(file))
	if !errors.Is(err, core.ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

// TestBVIX3LyingSections mutates section-table fields (resealing the
// header checksum so the geometry checks are what fire) and dict
// counts; all must be rejected without panicking.
func TestBVIX3LyingSections(t *testing.T) {
	pristine := serialize3(t, buildTestIndex(t, "Roaring"))

	mutate := func(name string, f func(file []byte)) {
		file := append([]byte{}, pristine...)
		f(file)
		reseal3Header(file)
		if _, err := Read(bytes.NewReader(file)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	mutate("misaligned dict offset", func(file []byte) {
		binary.LittleEndian.PutUint64(file[24:], bvix3DataStart+8)
	})
	mutate("dict length overrunning file", func(file []byte) {
		binary.LittleEndian.PutUint64(file[24+8:], uint64(len(file)))
	})
	mutate("huge term count", func(file []byte) {
		binary.LittleEndian.PutUint32(file[12:], 0xFFFFFFFF)
	})
	mutate("zero frame length with terms", func(file []byte) {
		binary.LittleEndian.PutUint32(file[16:], 0)
	})
	mutate("wrong section count", func(file []byte) {
		binary.LittleEndian.PutUint32(file[20:], 4)
	})
	mutate("payload length lying short", func(file []byte) {
		binary.LittleEndian.PutUint64(file[24+2*20+8:], 8)
	})
}

func TestBVIX3SectionAlignment(t *testing.T) {
	file := serialize3(t, buildWideIndex(t, "Roaring", 1))
	g, err := parseBVIX3(file)
	if err != nil {
		t.Fatal(err)
	}
	for i, sec := range []struct {
		off uint64
	}{
		{binary.LittleEndian.Uint64(file[24:])},
		{binary.LittleEndian.Uint64(file[24+20:])},
		{binary.LittleEndian.Uint64(file[24+40:])},
	} {
		if sec.off%bvix3Align != 0 {
			t.Fatalf("section %d offset %d not %d-aligned", i, sec.off, bvix3Align)
		}
	}
	// Every payload record the dict names starts 8-aligned.
	cur := 0
	for i := 0; i < g.terms; i++ {
		rec, err := parseDictRecord(g.dict, cur)
		if err != nil {
			t.Fatal(err)
		}
		if rec.payOff%bvix3RecAlign != 0 {
			t.Fatalf("term %q payload offset %d not %d-aligned", rec.name, rec.payOff, bvix3RecAlign)
		}
		cur = rec.next
	}
}

func TestBVIX3EmptyIndex(t *testing.T) {
	b := NewBuilder(codecs.All()[0])
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	file := serialize3(t, idx)
	loaded, err := Read(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("empty index rejected: %v", err)
	}
	if loaded.Docs() != 0 || loaded.Terms() != 0 || loaded.SizeBytes() != 0 {
		t.Fatalf("empty index shape: %d/%d/%d", loaded.Docs(), loaded.Terms(), loaded.SizeBytes())
	}
	lazy, err := openBVIX3Lazy(file, nil)
	if err != nil {
		t.Fatalf("lazy open of empty index: %v", err)
	}
	if got := lazy.DecodedPostings("anything"); len(got) != 0 {
		t.Fatalf("empty lazy index returned postings: %v", got)
	}
}

// TestBVIX3FormatConversion proves WriteTo on a lazily opened index
// materializes through the mapping: BVIX3 → WriteTo → Read → WriteTo
// reproduces the original file byte for byte.
func TestBVIX3FormatConversion(t *testing.T) {
	for _, codecName := range []string{"Roaring", "VB"} {
		orig := serialize3(t, buildWideIndex(t, codecName, 2))
		lazy, err := openBVIX3Lazy(orig, nil)
		if err != nil {
			t.Fatal(err)
		}
		var streamed bytes.Buffer
		if _, err := lazy.WriteTo(&streamed); err != nil {
			t.Fatalf("%s: WriteTo from lazy: %v", codecName, err)
		}
		back, err := Read(bytes.NewReader(streamed.Bytes()))
		if err != nil {
			t.Fatalf("%s: re-read: %v", codecName, err)
		}
		if got := serialize3(t, back); !bytes.Equal(got, orig) {
			t.Fatalf("%s: conversion cycle changed bytes (%d vs %d)", codecName, len(got), len(orig))
		}
	}
}

// TestBVIX3CloseSemantics pins the documented ownership rules: Close
// is idempotent, already-materialized postings stay readable, and
// un-materialized terms become absent rather than faulting.
func TestBVIX3CloseSemantics(t *testing.T) {
	idx := buildTestIndex(t, "Roaring")
	lazy := openLazy(t, idx)
	hot := lazy.DecodedPostings("compressed")
	if len(hot) == 0 {
		t.Fatal("expected postings for a known term")
	}
	if err := lazy.Close(); err != nil {
		t.Fatal(err)
	}
	if err := lazy.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if got := lazy.DecodedPostings("compressed"); !reflect.DeepEqual(got, hot) {
		t.Fatal("materialized posting unreadable after Close")
	}
	if got := lazy.DecodedPostings("lists"); len(got) != 0 {
		t.Fatal("un-materialized term should be absent after Close")
	}
	if _, _, err := lazy.sortedEntries(); err == nil {
		t.Fatal("sortedEntries should fail on a closed lazy index")
	}
}
