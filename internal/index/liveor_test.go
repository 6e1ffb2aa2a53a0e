package index

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultio"
	"repro/internal/ops"
)

// memDisjunctive is an in-memory segment's OR as a list, for tests
// that drive boolean with an OR evaluator.
func memDisjunctive(m *MemSegment, terms []string) []uint32 {
	var lists [][]uint32
	for _, t := range terms {
		if list, _ := m.Postings(t); len(list) > 0 {
			lists = append(lists, list)
		}
	}
	return ops.UnionMany(lists)
}

// sealHookFS runs hook, once, when a segment file is created: during a
// seal's build, while the frozen segment is still served.
type sealHookFS struct {
	faultio.FS
	hook func()
}

func (f *sealHookFS) Create(path string) (faultio.File, error) {
	if h := f.hook; h != nil && strings.HasPrefix(filepath.Base(path), "seg-") {
		f.hook = nil
		h()
	}
	return f.FS.Create(path)
}

// orModel is the test's own truth for the live OR: term → ascending
// docids of the visible documents holding it.
type orModel struct {
	terms   map[string][]uint32
	texts   map[uint32]string // visible documents
	deleted []uint32          // docids free for Reinsert
}

func (m *orModel) add(doc uint32, text string) {
	m.texts[doc] = text
	for _, t := range Tokenize(text) {
		list := m.terms[t]
		if i, found := slices.BinarySearch(list, doc); !found {
			m.terms[t] = slices.Insert(list, i, doc)
		}
	}
}

func (m *orModel) remove(doc uint32) {
	for _, t := range Tokenize(m.texts[doc]) {
		if i, found := slices.BinarySearch(m.terms[t], doc); found {
			m.terms[t] = slices.Delete(m.terms[t], i, i+1)
		}
	}
	delete(m.texts, doc)
	m.deleted = append(m.deleted, doc)
}

func (m *orModel) or(terms []string) []uint32 {
	var out []uint32
	for _, t := range terms {
		out = append(out, m.terms[t]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// orVocab is the test vocabulary: term i is in a document with
// probability orOdds[i], from nearly every document to almost none, so
// that ORs land on both sides of the dense cut, in every segment.
var (
	orVocab = []string{"all", "most", "half", "some", "few", "rare", "once"}
	orOdds  = []float64{0.95, 0.7, 0.5, 0.2, 0.06, 0.015, 0.004}
)

func orText(rng *rand.Rand) string {
	var words []string
	for i, t := range orVocab {
		if rng.Float64() < orOdds[i] {
			words = append(words, t)
		}
	}
	return strings.Join(append(words, "filler"), " ")
}

var orQueries = [][]string{
	{"all"}, {"half"}, {"rare"}, {"once"}, {"absent"},
	{"most", "half"}, {"some", "few"}, {"few", "rare", "once"}, {"rare", "absent"},
	{"half", "half"}, {"all", "most", "half", "some", "few", "rare", "once"},
}

// TestLiveOrWordsMatchesModel: a seeded run of adds, deletes from
// sealed and frozen segments, Reinserts into newer segments, seals and
// compactions; after every step each OR — Live.Disjunctive, and
// Live.Search with and without Words — equals the model. A dense answer
// that takes words comes back as words only (at a 2^16 boundary), an
// answer that does not take them as docids only, and both kinds occur.
func TestLiveOrWordsMatchesModel(t *testing.T) {
	var words, docs int
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fsys := &sealHookFS{FS: faultio.OS}
		l, err := OpenLive(t.TempDir(), LiveOptions{FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		m := &orModel{terms: map[string][]uint32{}, texts: map[uint32]string{}}
		mutable := map[uint32]bool{} // docids added since the last seal began
		var frozen map[uint32]bool

		check := func(step string) {
			t.Helper()
			for _, q := range orQueries {
				want := m.or(q)
				got, err := l.Disjunctive(q...)
				if err != nil || !slices.Equal(got, want) {
					t.Fatalf("seed %d %s: Disjunctive %v = %v (%v), want %v", seed, step, q, got, err, want)
				}
				for _, asWords := range []bool{false, true} {
					a, err := l.Search(context.Background(), Request{Mode: "or", Terms: q, Words: asWords})
					if err != nil {
						t.Fatal(err)
					}
					got := a.Docs
					if a.Words != nil {
						if !asWords || a.Docs != nil || a.Words.Base&0xffff != 0 {
							t.Fatalf("seed %d %s: %v words=%v: words at %#x beside %d docids", seed, step, q, asWords, a.Words.Base, len(a.Docs))
						}
						got = a.Words.Docs()
						words++
					} else if asWords {
						docs++
					}
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d %s: Search %v words=%v = %v, want %v", seed, step, q, asWords, got, want)
					}
				}
			}
		}
		add := func() {
			text := orText(rng)
			doc, err := l.Add(text)
			if err != nil {
				t.Fatal(err)
			}
			m.add(doc, text)
			mutable[doc] = true
		}
		// pick returns a random visible docid that pred accepts, or false.
		pick := func(pred func(uint32) bool) (uint32, bool) {
			var ids []uint32
			for d := range m.texts {
				if pred(d) {
					ids = append(ids, d)
				}
			}
			if len(ids) == 0 {
				return 0, false
			}
			slices.Sort(ids)
			return ids[rng.Intn(len(ids))], true
		}
		del := func(pred func(uint32) bool, n int) {
			for range n {
				d, ok := pick(pred)
				if !ok {
					return
				}
				if err := l.Delete(d); err != nil {
					t.Fatal(err)
				}
				m.remove(d)
				delete(mutable, d)
			}
		}
		reinsert := func(n int) {
			for ; n > 0 && len(m.deleted) > 0; n-- {
				i := rng.Intn(len(m.deleted))
				d := m.deleted[i]
				m.deleted = slices.Delete(m.deleted, i, i+1)
				text := orText(rng)
				if err := l.Reinsert(d, text); err != nil {
					t.Fatal(err)
				}
				m.add(d, text)
				mutable[d] = true
			}
		}
		sealed := func(d uint32) bool { return !mutable[d] && !frozen[d] }

		for round := range 6 {
			for range 60 + rng.Intn(200) {
				add()
			}
			del(func(d uint32) bool { return mutable[d] }, 5)
			del(sealed, 10)
			reinsert(3)
			check(fmt.Sprintf("round %d before seal", round))

			// The hook runs mid-seal: the round's documents are frozen.
			frozen, mutable = mutable, map[uint32]bool{}
			fsys.hook = func() {
				check(fmt.Sprintf("round %d frozen", round))
				del(func(d uint32) bool { return frozen[d] }, 8)
				del(sealed, 4)
				reinsert(6)
				for range 20 {
					add()
				}
				check(fmt.Sprintf("round %d frozen, after deletes", round))
			}
			if err := l.Seal(); err != nil {
				t.Fatal(err)
			}
			if fsys.hook != nil {
				t.Fatal("the seal wrote no segment")
			}
			frozen = nil
			check(fmt.Sprintf("round %d sealed", round))
			reinsert(4)
			del(sealed, 6)
			if err := l.Seal(); err != nil {
				t.Fatal(err)
			}
			mutable = map[uint32]bool{}
			check(fmt.Sprintf("round %d reinserts sealed", round))
			if round%2 == 1 {
				if err := l.Compact(); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("round %d compacted", round))
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if words == 0 || docs == 0 {
		t.Fatalf("%d answers came back as words and %d that could have as docids: both sides of the cut must occur", words, docs)
	}
}
