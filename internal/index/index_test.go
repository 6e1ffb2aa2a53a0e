package index

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/codecs"
)

var docs = []string{
	"compressed bitmap indexes accelerate analytical queries",
	"inverted lists power every web search engine",
	"roaring bitmap containers mix arrays and bitmaps",
	"search engines compress inverted lists with pfordelta",
	"bitmap compression and inverted list compression solve the same problem",
	"skip pointers make intersection of compressed lists fast",
	"compressed, compressed; COMPRESSED!", // tokenizer + frequency payload
}

func buildTestIndex(t *testing.T, codecName string) *Index {
	t.Helper()
	codec, err := codecs.ByName(codecName)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(codec)
	for i, d := range docs {
		if id := b.AddDocument(d); id != uint32(i) {
			t.Fatalf("doc %d got id %d", i, id)
		}
	}
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! (really)")
	want := []string{"hello", "world", "really"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize = %v, want %v", got, want)
	}
	if out := Tokenize("..."); len(out) != 0 {
		t.Fatalf("pure punctuation should tokenize to nothing, got %v", out)
	}
}

func TestConjunctiveDisjunctive(t *testing.T) {
	for _, codec := range []string{"Roaring", "SIMDBP128*", "WAH"} {
		idx := buildTestIndex(t, codec)
		and, err := idx.Conjunctive("compressed", "lists")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(and, []uint32{5}) {
			t.Errorf("%s: AND = %v, want [5]", codec, and)
		}
		or, err := idx.Disjunctive("roaring", "pfordelta")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(or, []uint32{2, 3}) {
			t.Errorf("%s: OR = %v, want [2 3]", codec, or)
		}
		// Missing term: conjunction empties, disjunction ignores.
		if r, _ := idx.Conjunctive("bitmap", "nonexistent"); len(r) != 0 {
			t.Errorf("%s: AND with missing term = %v", codec, r)
		}
		if r, _ := idx.Disjunctive("bitmap", "nonexistent"); len(r) == 0 {
			t.Errorf("%s: OR with missing term should keep matches", codec)
		}
	}
}

// TestSearchWordsMatchesDisjunctive: a request that takes words gets a
// dense OR as words holding exactly Disjunctive's docids, never beside
// docids; an AND, a sparse OR and a request without Words get docids.
func TestSearchWordsMatchesDisjunctive(t *testing.T) {
	for _, codec := range []string{"Roaring", "SIMDBP128*", "WAH"} {
		idx := buildTestIndex(t, codec)
		for _, q := range [][]string{{"compressed", "bitmap", "lists"}, {"roaring", "pfordelta"}, {"bitmap"}, {"absent"}} {
			want, err := idx.Disjunctive(q...)
			if err != nil {
				t.Fatal(err)
			}
			for _, words := range []bool{false, true} {
				a, err := idx.Search(context.Background(), Request{Mode: "or", Terms: q, Words: words})
				if err != nil {
					t.Fatal(err)
				}
				got := a.Docs
				if a.Words != nil {
					if !words || a.Docs != nil {
						t.Fatalf("%s %v words=%v: words beside %v", codec, q, words, a.Docs)
					}
					got = a.Words.Docs()
				}
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("%s %v words=%v: %v, Disjunctive %v", codec, q, words, got, want)
				}
			}
		}
		// Over seven documents a list-coded OR is dense in its span (a
		// Roaring one spans its whole bucket, and a WAH pair ORs natively).
		if a, _ := idx.Search(context.Background(), Request{Mode: "or", Terms: []string{"compressed", "bitmap"}, Words: true}); codec == "SIMDBP128*" && a.Words == nil {
			t.Errorf("%s: a dense OR that takes words came back as %v", codec, a.Docs)
		}
		if a, _ := idx.Search(context.Background(), Request{Mode: "and", Terms: []string{"compressed", "bitmap"}, Words: true}); a.Words != nil {
			t.Errorf("%s: an AND came back as words", codec)
		}
	}
}

func TestTopKRanksByFrequency(t *testing.T) {
	idx := buildTestIndex(t, "Roaring")
	top, err := idx.TopK(2, "compressed")
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 {
		t.Fatalf("TopK returned %d results", len(top))
	}
	// Doc 6 repeats "compressed" three times: must rank first.
	if top[0].Doc != 6 || top[0].Score != 3 {
		t.Fatalf("top result = %+v, want doc 6 score 3", top[0])
	}
	if top[1].Score > top[0].Score {
		t.Fatal("results not sorted by score")
	}
	// k larger than candidate count.
	all, _ := idx.TopK(100, "compressed")
	if len(all) != 3 {
		t.Fatalf("TopK(100) = %d results, want 3", len(all))
	}
	// No candidates.
	if r, err := idx.TopK(5, "nonexistent"); err != nil || r != nil {
		t.Fatalf("TopK missing term = %v, %v", r, err)
	}
}

func TestIndexAccessors(t *testing.T) {
	idx := buildTestIndex(t, "Roaring")
	if idx.Docs() != len(docs) {
		t.Errorf("Docs = %d", idx.Docs())
	}
	if idx.Terms() == 0 || idx.SizeBytes() <= 0 {
		t.Error("Terms/SizeBytes look wrong")
	}
	if idx.Postings("bitmap") == nil || idx.Postings("bitmap") == EmptyPosting {
		t.Error("Postings(bitmap) missing")
	}
	if idx.Postings("nonexistent") != EmptyPosting {
		t.Error("Postings should return the EmptyPosting sentinel for unknown terms")
	}
}

// TestUnknownTermSentinels pins the documented sentinel contract:
// unknown terms yield EmptyPosting / EmptyPostings, never nil, so
// callers can chain Len/Decompress/len without nil checks.
func TestUnknownTermSentinels(t *testing.T) {
	idx := buildTestIndex(t, "Roaring")
	p := idx.Postings("no-such-term")
	if p == nil {
		t.Fatal("Postings returned nil for an unknown term")
	}
	if p != EmptyPosting {
		t.Fatalf("Postings returned %T, want the EmptyPosting sentinel", p)
	}
	if p.Len() != 0 || p.SizeBytes() != 0 || len(p.Decompress()) != 0 {
		t.Fatalf("EmptyPosting not empty: Len=%d SizeBytes=%d", p.Len(), p.SizeBytes())
	}
	d := idx.DecodedPostings("no-such-term")
	if d == nil {
		t.Fatal("DecodedPostings returned nil for an unknown term")
	}
	if len(d) != 0 {
		t.Fatalf("DecodedPostings for unknown term has %d values", len(d))
	}
	// The sentinel survives a round trip through a lazily opened index.
	lazy := openLazy(t, idx)
	defer lazy.Close()
	if lazy.Postings("no-such-term") != EmptyPosting {
		t.Fatal("lazy index did not return the EmptyPosting sentinel")
	}
	if got := lazy.DecodedPostings("no-such-term"); got == nil || len(got) != 0 {
		t.Fatalf("lazy DecodedPostings = %v, want empty sentinel", got)
	}
}

func TestPersistRoundTrip(t *testing.T) {
	for _, codec := range []string{"Roaring", "PEF", "VB"} {
		idx := buildTestIndex(t, codec)
		var buf bytes.Buffer
		n, err := idx.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", codec, err)
		}
		if n != int64(buf.Len()) {
			t.Errorf("%s: WriteTo reported %d bytes, wrote %d", codec, n, buf.Len())
		}
		loaded, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: Read: %v", codec, err)
		}
		if loaded.Docs() != idx.Docs() || loaded.Terms() != idx.Terms() {
			t.Fatalf("%s: loaded index shape mismatch", codec)
		}
		and1, _ := idx.Conjunctive("compressed", "lists")
		and2, _ := loaded.Conjunctive("compressed", "lists")
		if !reflect.DeepEqual(and1, and2) {
			t.Fatalf("%s: query results differ after reload", codec)
		}
		top1, _ := idx.TopK(3, "compressed")
		top2, _ := loaded.TopK(3, "compressed")
		if !reflect.DeepEqual(top1, top2) {
			t.Fatalf("%s: top-k differs after reload", codec)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("NOTANINDEX"))); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncated valid stream.
	idx := buildTestIndex(t, "Roaring")
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if _, err := Read(bytes.NewReader(blob[:len(blob)/2])); err == nil {
		t.Error("truncated index accepted")
	}
}
