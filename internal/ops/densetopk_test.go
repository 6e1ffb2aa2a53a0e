package ops

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// randomImpactList draws n distinct docids from [lo, lo+span) with
// impacts in [1, maxImp], cut into 128-posting blocks.
func randomImpactList(rng *rand.Rand, n int, lo, span uint32, maxImp int) *memImpactList {
	set := map[uint32]bool{}
	for len(set) < n {
		set[lo+uint32(rng.Int63n(int64(span)))] = true
	}
	docs := make([]uint32, 0, n)
	for d := range set {
		docs = append(docs, d)
	}
	sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
	imps := make([]uint32, n)
	for i := range imps {
		imps[i] = 1 + uint32(rng.Intn(maxImp))
	}
	return newMemImpactList(docs, imps, 128)
}

// denseCase is one input of TestTopKDenseMatchesExhaustive and the
// scorer TopK must pick for it.
type denseCase struct {
	name  string
	lists []*memImpactList
	dense bool
}

// withDoc returns l with docid d (impact 1) inserted.
func withDoc(l *memImpactList, d uint32) *memImpactList {
	docs := append([]uint32(nil), l.docs...)
	imps := append([]uint32(nil), l.imps...)
	i := sort.Search(len(docs), func(i int) bool { return docs[i] >= d })
	if i == len(docs) || docs[i] != d {
		docs = append(docs[:i], append([]uint32{d}, docs[i:]...)...)
		imps = append(imps[:i], append([]uint32{1}, imps[i:]...)...)
	}
	return newMemImpactList(docs, imps, 128)
}

// guardLists builds 129 lists over the same 200 docids whose term
// maxima sum to 128·255 + last: every list attains its maximum, so the
// best documents score the whole sum.
func guardLists(rng *rand.Rand, last uint32) []*memImpactList {
	lists := make([]*memImpactList, 129)
	for i := range lists {
		mx := uint32(255)
		if i == len(lists)-1 {
			mx = last
		}
		docs := make([]uint32, 200)
		imps := make([]uint32, 200)
		for d := range docs {
			docs[d] = uint32(d)
			imps[d] = 1 + uint32(rng.Intn(int(mx)))
			if d%50 == 7 {
				imps[d] = mx
			}
		}
		lists[i] = newMemImpactList(docs, imps, 128)
	}
	return lists
}

// denseCases builds the property test's inputs for one seed.
func denseCases(rng *rand.Rand) []denseCase {
	var cases []denseCase
	// Random shapes: 2–4 lists whose summed length is from 1/32 to 2
	// times their span, with partial last blocks, on both sides of the
	// cut.
	for _, ratio := range []float64{1.0 / 32, 1.0 / 8, 0.3, 1, 2} {
		k := 2 + rng.Intn(3)
		span := uint32(2000 + rng.Intn(6000))
		lo := uint32(rng.Intn(1 << 20))
		lists := make([]*memImpactList, k)
		for i := range lists {
			n := max(1, int(ratio*float64(span)/float64(k)))
			lists[i] = randomImpactList(rng, n, lo, span, 1+rng.Intn(12))
		}
		cases = append(cases, denseCase{name: fmt.Sprintf("ratio=%g", ratio), lists: lists, dense: ratio >= denseTopKCut})
	}
	// Clustered against the top of the docid space, then with docid 0
	// added to one list: its span becomes 2^32.
	top := []*memImpactList{
		randomImpactList(rng, 150, math.MaxUint32-299, 300, 9),
		randomImpactList(rng, 120, math.MaxUint32-299, 300, 9),
	}
	top[0] = withDoc(top[0], math.MaxUint32)
	cases = append(cases,
		denseCase{name: "top", lists: top, dense: true},
		denseCase{name: "top+0", lists: []*memImpactList{withDoc(top[0], 0), top[1]}})
	// A query term repeated, as Live passes it: its impacts count twice.
	rep := randomImpactList(rng, 700, 0, 1000, 6)
	cases = append(cases, denseCase{name: "repeated", lists: []*memImpactList{rep, randomImpactList(rng, 300, 0, 1000, 6), rep}, dense: true})
	// The 16-bit guard: term maxima summing to exactly 0x7fff score
	// densely, one more falls back to BMW.
	cases = append(cases,
		denseCase{name: "guard=0x7fff", lists: guardLists(rng, 127), dense: true},
		denseCase{name: "guard=0x8000", lists: guardLists(rng, 128)})
	return cases
}

// TestTopKDenseMatchesExhaustive: TopK's Block-Max mode returns the
// exhaustive ranking exactly whichever scorer the cut picks, and picks
// the one each case is built for; the dense scorer forced onto every
// case, and BMW forced onto every case, do too; and the dense scorer's
// counters report every block read and every document scored.
func TestTopKDenseMatchesExhaustive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range denseCases(rng) {
			lists := asImpactLists(c.lists)
			for _, k := range []int{1, 5, 20, 100000} {
				var ex, got TopKStats
				want := TopK(TopKExhaustive, k, lists, &ex)
				res := TopK(TopKBlockMax, k, lists, &got)
				if !reflect.DeepEqual(res, want) {
					t.Fatalf("seed %d %s k=%d: got %v want %v", seed, c.name, k, res, want)
				}
				if (got.Dense == 1) != c.dense || got.Mode != "bmw" {
					t.Fatalf("seed %d %s: stats %+v, want dense %v", seed, c.name, got, c.dense)
				}
				if c.dense && (got.BlocksDecoded != got.BlocksTotal || got.DocsScored != ex.DocsScored) {
					t.Fatalf("seed %d %s: dense stats %+v, exhaustive %+v", seed, c.name, got, ex)
				}
				for _, dense := range []bool{true, false} {
					if res := TopKForced(dense, k, lists, nil); !reflect.DeepEqual(res, want) {
						t.Fatalf("seed %d %s k=%d forced dense=%v: got %v want %v", seed, c.name, k, dense, res, want)
					}
				}
			}
		}
	}
}

// TestTopKDensePoolRetention: a query over a span above the retention
// cap leaves no score lanes in the pooled accumulator; one under it
// keeps its lanes, all zero.
func TestTopKDensePoolRetention(t *testing.T) {
	for _, span := range []uint32{scoreMaxRetain, scoreMaxRetain + 1} {
		a := &scoreAccumulator{}
		lists := []ImpactList{
			newMemImpactList([]uint32{0, 5, span - 1}, []uint32{3, 1, 2}, 128),
			newMemImpactList([]uint32{5, 9}, []uint32{4, 1}, 128),
		}
		h := &topkHeap{k: 2}
		if scored, blocks := a.score(lists, 0, span-1, h); scored != 4 || blocks != 2 {
			t.Fatalf("span %d: scored %d docs, read %d blocks", span, scored, blocks)
		}
		if got, want := h.sorted(), []ScoredDoc{{Doc: 5, Score: 5}, {Doc: 0, Score: 3}}; !reflect.DeepEqual(got, want) {
			t.Fatalf("span %d: got %v want %v", span, got, want)
		}
		putScoreAccumulator(a)
		if retained, want := a.scores != nil, span <= scoreMaxRetain; retained != want {
			t.Fatalf("span %d: lanes retained %v, want %v", span, retained, want)
		}
		for i, s := range a.scores[:cap(a.scores)] {
			if s != 0 {
				t.Fatalf("span %d: lane %d left at %d", span, i, s)
			}
		}
	}
}

// TestTopKDenseConcurrentPooled: dense queries from several goroutines
// at once share the score pool and still answer exactly.
func TestTopKDenseConcurrentPooled(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var queries [][]ImpactList
	var wants [][]ScoredDoc
	for i := 0; i < 8; i++ {
		lo := uint32(rng.Intn(1 << 16))
		span := uint32(500 + rng.Intn(4000))
		q := []ImpactList{
			randomImpactList(rng, int(span/3), lo, span, 9),
			randomImpactList(rng, int(span/2), lo, span, 9),
		}
		queries, wants = append(queries, q), append(wants, TopK(TopKExhaustive, 10, q, nil))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j := (g + i) % len(queries)
				var st TopKStats
				if got := TopK(TopKBlockMax, 10, queries[j], &st); st.Dense != 1 || !reflect.DeepEqual(got, wants[j]) {
					t.Errorf("goroutine %d query %d: got %v (dense %d) want %v", g, j, got, st.Dense, wants[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTopKStatsAddSumsDense: Add sums the dense evaluations of the
// segments or shards it folds and keeps the first mode.
func TestTopKStatsAddSumsDense(t *testing.T) {
	var sum TopKStats
	for _, st := range []TopKStats{{Mode: "bmw", Dense: 1, DocsScored: 7}, {Mode: "bmw", DocsScored: 2}, {Mode: "bmw", Dense: 1}} {
		sum.Add(st)
	}
	if want := (TopKStats{Mode: "bmw", Dense: 2, DocsScored: 9}); sum != want {
		t.Fatalf("sum = %+v, want %+v", sum, want)
	}
}
