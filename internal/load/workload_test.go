package load

import (
	"testing"

	"repro/internal/codecs"
	"repro/internal/index"
)

func buildTestIndex(t testing.TB, seed int64, ndocs, vocab int) (*index.Index, []string) {
	t.Helper()
	docs, terms := GenCorpus(seed, ndocs, vocab)
	codec, err := codecs.ByName("Roaring")
	if err != nil {
		t.Fatal(err)
	}
	b := index.NewBuilder(codec)
	for _, d := range docs {
		b.AddDocument(d)
	}
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return idx, terms
}

func TestGenCorpusDeterministic(t *testing.T) {
	d1, t1 := GenCorpus(7, 50, 20)
	d2, t2 := GenCorpus(7, 50, 20)
	if len(d1) != 50 || len(t1) != 20 {
		t.Fatalf("sizes: %d docs, %d terms", len(d1), len(t1))
	}
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("doc %d differs across same-seed generations", i)
		}
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("term %d differs", i)
		}
	}
	d3, _ := GenCorpus(8, 50, 20)
	same := 0
	for i := range d1 {
		if d1[i] == d3[i] {
			same++
		}
	}
	if same == len(d1) {
		t.Fatal("different seeds produced an identical corpus")
	}
}

func TestBuildWorkloadGroundTruth(t *testing.T) {
	idx, vocab := buildTestIndex(t, 3, 120, 30)
	w, err := BuildWorkload(idx, vocab, 200, 11, DefaultMix())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Queries) != 200 {
		t.Fatalf("queries = %d", len(w.Queries))
	}
	modes := map[string]int{}
	for i, q := range w.Queries {
		modes[q.Mode]++
		// Recompute ground truth independently and compare.
		switch q.Mode {
		case "and":
			want, _ := idx.Conjunctive(q.Terms...)
			if !equalU32(q.Expected, want) {
				t.Fatalf("query %d: AND expected mismatch", i)
			}
		case "or":
			want, _ := idx.Disjunctive(q.Terms...)
			if !equalU32(q.Expected, want) {
				t.Fatalf("query %d: OR expected mismatch", i)
			}
		case "topk":
			ranked, _ := idx.TopK(q.K, q.Terms...)
			if len(ranked) != len(q.Expected) {
				t.Fatalf("query %d: topk size mismatch", i)
			}
			for j, r := range ranked {
				if r.Doc != q.Expected[j] {
					t.Fatalf("query %d: topk rank %d mismatch", i, j)
				}
			}
			// Candidates are the disjunctive match set: top-k scores
			// any document containing at least one query term.
			cand, _ := idx.Disjunctive(q.Terms...)
			if !equalU32(q.Candidates, cand) {
				t.Fatalf("query %d: candidates mismatch", i)
			}
		default:
			t.Fatalf("query %d: unknown mode %q", i, q.Mode)
		}
	}
	for _, m := range []string{"and", "or", "topk"} {
		if modes[m] == 0 {
			t.Errorf("mix produced no %s queries", m)
		}
	}
}

func TestSubsetAndPartial(t *testing.T) {
	if !subsetU32([]uint32{2, 5}, []uint32{1, 2, 3, 5}) {
		t.Error("subset not recognized")
	}
	if subsetU32([]uint32{2, 9}, []uint32{1, 2, 3, 5}) {
		t.Error("non-subset accepted")
	}
	if !subsetU32(nil, []uint32{1}) || !subsetU32(nil, nil) {
		t.Error("empty set must be a subset of anything")
	}
	// topk partial: unordered subset of candidates, bounded by K.
	q := Query{Mode: "topk", K: 2, Candidates: []uint32{1, 4, 7}}
	if !q.partialOK([]uint32{7, 1}) {
		t.Error("in-candidates ranking rejected")
	}
	if q.partialOK([]uint32{7, 1, 4}) {
		t.Error("over-K ranking accepted")
	}
	if q.partialOK([]uint32{9}) {
		t.Error("out-of-candidates ranking accepted")
	}
	// and/or partial: subset of expected.
	q2 := Query{Mode: "and", Expected: []uint32{3, 8, 9}}
	if !q2.partialOK([]uint32{3, 9}) || q2.partialOK([]uint32{3, 10}) {
		t.Error("and partial misclassified")
	}
}
