package index

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
)

// entry resolves a term with its frequencies and impact annotations
// loaded, whichever backend holds it: the whole entry the brute-force
// rankings score from.
func (idx *Index) entry(name string) (termEntry, bool) {
	e, ok := idx.term(name)
	if ok && e.lazy != nil {
		e.freqs, e.impacts = e.frequencies(), e.storedImpacts()
	}
	return e, ok
}

// writeFormat writes idx to a temp file as BVIX3 with or without the
// impacts section and returns the path and bytes.
func writeFormat(t *testing.T, idx *Index, withImpacts bool) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	write := idx.WriteTo
	if withImpacts {
		write = idx.WriteBVIX3Impacts
	}
	if _, err := write(&buf); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "idx.bvix")
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return p, buf.Bytes()
}

// loadedAfterClose reports which of a mapped term's deferred payloads
// were loaded before its index closed: a load that first runs after
// close reads nothing.
func loadedAfterClose(t *testing.T, idx *Index, term string) (freqs, impacts bool) {
	t.Helper()
	lt := idx.lazy.ready[term]
	if lt == nil {
		t.Fatalf("term %q was never looked up", term)
	}
	return lt.frequencies() != nil, lt.storedImpacts() != nil
}

// TestMappedFirstTouchLoadsOnlyWhatItUses: boolean queries on a mapped
// index decode docids and nothing else; a ranked query decodes stored
// impacts where the file has them and frequencies only where it has not.
func TestMappedFirstTouchLoadsOnlyWhatItUses(t *testing.T) {
	built := buildWideIndex(t, "Roaring", 1)
	a, b := "w0001", "w0002"
	for _, withImpacts := range []bool{false, true} {
		path, _ := writeFormat(t, built, withImpacts)
		open := func() *Index {
			idx, err := OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return idx
		}

		idx := open()
		if _, err := idx.Conjunctive(a, b); err != nil {
			t.Fatal(err)
		}
		if _, err := idx.Disjunctive(a, b); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []string{"and", "or"} {
			for _, words := range []bool{false, true} {
				if _, err := idx.Search(context.Background(), Request{Mode: mode, Terms: []string{a, b}, Words: words}); err != nil {
					t.Fatal(err)
				}
			}
		}
		idx.Close()
		for _, term := range []string{a, b} {
			if f, i := loadedAfterClose(t, idx, term); f || i {
				t.Fatalf("impacts section %v: boolean queries loaded frequencies %v, impacts %v of %q", withImpacts, f, i, term)
			}
		}

		idx = open()
		want, _ := built.TopK(10, a, b)
		if got, err := idx.TopK(10, a, b); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("impacts section %v: TopK = %v, %v; want %v", withImpacts, got, err, want)
		}
		idx.Close()
		for _, term := range []string{a, b} {
			if f, i := loadedAfterClose(t, idx, term); f == withImpacts || i != withImpacts {
				t.Fatalf("impacts section %v: ranking loaded frequencies %v, impacts %v of %q", withImpacts, f, i, term)
			}
		}
	}
}

// TestDegradedOpenFreqListCorrupt: one flipped byte in one term's γ
// frequency list still serves that term's docids; the term ranks by
// document count, counts as an impacts quarantine, and every other term
// ranks as before. Rewriting the salvaged index keeps that ranking.
func TestDegradedOpenFreqListCorrupt(t *testing.T) {
	built := buildWideIndex(t, "Roaring", 1)
	names, entries, err := built.sortedEntries()
	if err != nil {
		t.Fatal(err)
	}
	victim := -1
	for i, e := range entries {
		for _, f := range e.freqs {
			if f > 1 && e.posting.Len() >= 12 {
				victim = i
			}
		}
		if victim >= 0 {
			break
		}
	}
	if victim < 0 {
		t.Fatal("no term with a frequency above 1")
	}
	name, other := names[victim], names[(victim+1)%len(names)]
	vals := built.DecodedPostings(name)
	var counting []Result
	for _, d := range vals[:10] {
		counting = append(counting, Result{Doc: d, Score: 1})
	}
	if want, _ := built.TopK(10, name); reflect.DeepEqual(want, counting) {
		t.Fatalf("term %q ranks the same by document count: the test would prove nothing", name)
	}

	for _, withImpacts := range []bool{false, true} {
		_, file := writeFormat(t, built, withImpacts)
		_, recs := dictRecordOffsets(t, file)
		rec := recs[victim]
		if string(rec.name) != name || rec.freqLen == 0 {
			t.Fatalf("record %d is %q with a %d-byte list", victim, rec.name, rec.freqLen)
		}
		file[sectionOffsets(file)[2][0]+rec.payOff+uint64(rec.postLen)] ^= 0x5A

		if _, err := Read(bytes.NewReader(file)); !errors.Is(err, core.ErrChecksum) {
			t.Fatalf("impacts section %v: strict Read = %v, want ErrChecksum", withImpacts, err)
		}
		deg, err := OpenFileDegraded(writeTemp3(t, file))
		if err != nil {
			t.Fatal(err)
		}
		h := deg.Health()
		if !h.Degraded || !reflect.DeepEqual(h.QuarantinedSections, []string{"payload"}) || h.QuarantinedTerms != 0 || h.QuarantinedImpacts != 1 {
			t.Fatalf("impacts section %v: health %+v, want the payload section degraded and one impacts quarantine", withImpacts, h)
		}
		for _, n := range names {
			if !reflect.DeepEqual(deg.DecodedPostings(n), built.DecodedPostings(n)) {
				t.Fatalf("impacts section %v: term %q serves other postings", withImpacts, n)
			}
		}
		if got, err := deg.TopK(10, name); err != nil || !reflect.DeepEqual(got, counting) {
			t.Fatalf("impacts section %v: TopK(%q) = %v, %v; want document counting %v", withImpacts, name, got, err, counting)
		}
		want, _ := built.TopK(10, other)
		if got, _ := deg.TopK(10, other); !reflect.DeepEqual(got, want) {
			t.Fatalf("impacts section %v: TopK(%q) = %v, want %v", withImpacts, other, got, want)
		}
		checkTopKAllAlgos(t, deg, 10, name, other)

		var rewritten bytes.Buffer
		if _, err := deg.WriteTo(&rewritten); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&rewritten)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := again.TopK(10, name); !reflect.DeepEqual(got, counting) {
			t.Fatalf("impacts section %v: rewritten TopK(%q) = %v, want %v", withImpacts, name, got, counting)
		}
		deg.Close()
	}
}

// TestFirstRankedTouchRace ranks, intersects and compacts mapped
// segments from several goroutines while compaction retires and closes
// them, so each term's first ranked touch races the close. Run it with
// -race: no load may race a reader, and none may read the mapping after
// close, which would fault on the unmapped pages.
func TestFirstRankedTouchRace(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(dir, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	docs := wideDocs(240)
	model := map[uint32]string{}
	queries := [][]string{{"w0001", "w0002"}, {"w0003"}, {"w0010", "w0020", "w0030"}, {"w0100", "w0101"}}
	for round := 0; round < 4; round++ {
		// Two fresh segments, none of whose terms has been touched.
		for s := 0; s < 2; s++ {
			for _, d := range docs[(2*round+s)*30 : (2*round+s+1)*30] {
				id, err := l.Add(d)
				if err != nil {
					t.Fatal(err)
				}
				model[id] = d
			}
			if err := l.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		n := buildNaive(t, model)
		want := make([][]Result, len(queries))
		wantAnd := make([][]uint32, len(queries))
		for i, q := range queries {
			want[i] = n.topk(t, 5, q...)
			wantAnd[i] = n.conjunctive(t, q...)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := range 20 {
					qi := (g + i) % len(queries)
					got, err := l.TopK(5, queries[qi]...)
					if err != nil || (len(want[qi]) > 0 && !reflect.DeepEqual(got, want[qi])) {
						t.Errorf("round %d: TopK %v = %v, %v; want %v", round, queries[qi], got, err, want[qi])
						return
					}
					and, err := l.Conjunctive(queries[qi]...)
					if err != nil || !equalU32s(and, wantAnd[qi]) {
						t.Errorf("round %d: AND %v = %v, %v; want %v", round, queries[qi], and, err, wantAnd[qi])
						return
					}
				}
			}(g)
		}
		err := l.Compact()
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestFirstRankedTouchAfterClose: ranked queries that race Index.Close
// on a mapped file with impacts never fault; once closed, a term whose
// payloads were never loaded ranks by what the index still holds.
func TestFirstRankedTouchAfterClose(t *testing.T) {
	built := buildWideIndex(t, "Roaring", 1)
	names, _, err := built.sortedEntries()
	if err != nil {
		t.Fatal(err)
	}
	for _, withImpacts := range []bool{false, true} {
		path, _ := writeFormat(t, built, withImpacts)
		idx, err := OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Look every term up first, so the ranked touches below find
		// their docids decoded and only their payloads left to load.
		for _, n := range names {
			idx.Postings(n)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < len(names); i += 4 {
					if _, err := idx.TopK(5, names[i], names[(i+7)%len(names)]); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		idx.Close()
		wg.Wait()
	}
}
