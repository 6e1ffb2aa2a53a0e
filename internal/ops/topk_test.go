package ops

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// memImpactList is a reference ImpactList over in-memory (doc, impact)
// pairs, cut into blocks of blockLen, with its block frame precomputed.
type memImpactList struct {
	docs     []uint32
	imps     []uint32
	imp8     []uint8 // imps as Block hands them out
	last     []uint32
	max      []uint8
	blockLen int
}

func newMemImpactList(docs, imps []uint32, blockLen int) *memImpactList {
	m := &memImpactList{docs: docs, imps: imps, imp8: make([]uint8, len(imps)), blockLen: blockLen}
	for i, d := range docs {
		if i%blockLen == 0 {
			m.last, m.max = append(m.last, 0), append(m.max, 0)
		}
		b := i / blockLen
		m.last[b] = d
		m.max[b] = max(m.max[b], uint8(imps[i]))
		m.imp8[i] = uint8(imps[i])
	}
	return m
}

func (m *memImpactList) Len() int { return len(m.docs) }

func (m *memImpactList) TermMax() uint32 {
	var mx uint32
	for _, v := range m.imps {
		if v > mx {
			mx = v
		}
	}
	return mx
}

func (m *memImpactList) Blocks() ([]uint32, []uint8) { return m.last, m.max }

func (m *memImpactList) Block(b int, _ []uint32) ([]uint32, []uint8) {
	lo, hi := b*m.blockLen, min((b+1)*m.blockLen, len(m.docs))
	return m.docs[lo:hi], m.imp8[lo:hi]
}

func (m *memImpactList) Cursor() ImpactCursor { return &memImpactCursor{l: m, pos: -1} }

type memImpactCursor struct {
	l   *memImpactList
	pos int
}

func (c *memImpactCursor) Next() (uint32, bool) {
	c.pos++
	if c.pos >= len(c.l.docs) {
		return 0, false
	}
	return c.l.docs[c.pos], true
}

func (c *memImpactCursor) SeekGEQ(target uint32) (uint32, bool) {
	start := c.pos
	if start < 0 {
		start = 0
	}
	i := start + sort.Search(len(c.l.docs)-start, func(i int) bool { return c.l.docs[start+i] >= target })
	c.pos = i
	if i >= len(c.l.docs) {
		return 0, false
	}
	return c.l.docs[i], true
}

func (c *memImpactCursor) Impact() uint32     { return c.l.imps[c.pos] }
func (c *memImpactCursor) BlocksDecoded() int { return 0 }

// bruteTopK recomputes the expected result with a full score map.
func bruteTopK(k int, lists []*memImpactList) []ScoredDoc {
	scores := map[uint32]uint32{}
	for _, l := range lists {
		for i, d := range l.docs {
			scores[d] += l.imps[i]
		}
	}
	all := make([]ScoredDoc, 0, len(scores))
	for d, s := range scores {
		all = append(all, ScoredDoc{Doc: d, Score: int(s)})
	}
	sort.Slice(all, func(i, j int) bool { return worse(all[j], all[i]) })
	if len(all) > k {
		all = all[:k]
	}
	if len(all) == 0 {
		return nil
	}
	return all
}

func asImpactLists(ls []*memImpactList) []ImpactList {
	out := make([]ImpactList, len(ls))
	for i, l := range ls {
		out[i] = l
	}
	return out
}

var topkModes = []TopKMode{TopKExhaustive, TopKBlockMax}

func checkAllModes(t *testing.T, k int, lists []*memImpactList) {
	t.Helper()
	want := bruteTopK(k, lists)
	for _, mode := range topkModes {
		var stats TopKStats
		got := TopK(mode, k, asImpactLists(lists), &stats)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: k=%d got %v want %v", mode, k, got, want)
		}
	}
}

func TestTopKModesHandCases(t *testing.T) {
	// Ties everywhere: equal scores must resolve by ascending docid.
	a := newMemImpactList([]uint32{1, 5, 9, 13}, []uint32{2, 2, 2, 2}, 2)
	b := newMemImpactList([]uint32{5, 9, 20}, []uint32{1, 1, 3}, 2)
	c := newMemImpactList([]uint32{2, 13, 40}, []uint32{4, 1, 4}, 2)
	for _, k := range []int{1, 2, 3, 5, 100} {
		checkAllModes(t, k, []*memImpactList{a, b, c})
	}
	// Single list, k larger than the list.
	checkAllModes(t, 50, []*memImpactList{a})
	// Empty input.
	if got := TopK(TopKBlockMax, 3, nil, nil); got != nil {
		t.Fatalf("empty lists: got %v", got)
	}
	if got := TopK(TopKBlockMax, 0, asImpactLists([]*memImpactList{a}), nil); got != nil {
		t.Fatalf("k=0: got %v", got)
	}
}

// TestTopKModesRandomized cross-checks both algorithms against the
// brute-force map scorer on randomized corpora with heavy ties (small
// impact alphabet) and varied block widths.
func TestTopKModesRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nLists := 1 + rng.Intn(5)
		lists := make([]*memImpactList, nLists)
		for i := range lists {
			n := 1 + rng.Intn(300)
			set := map[uint32]bool{}
			for len(set) < n {
				set[uint32(rng.Intn(2000))] = true
			}
			docs := make([]uint32, 0, n)
			for d := range set {
				docs = append(docs, d)
			}
			sort.Slice(docs, func(a, b int) bool { return docs[a] < docs[b] })
			imps := make([]uint32, n)
			for j := range imps {
				imps[j] = 1 + uint32(rng.Intn(4)) // tiny alphabet → many ties
			}
			lists[i] = newMemImpactList(docs, imps, 1+rng.Intn(64))
		}
		k := 1 + rng.Intn(30)
		if trial%10 == 0 {
			k = 5000 // larger than any possible result set
		}
		checkAllModes(t, k, lists)
	}
}

// c300List builds a list shaped like the benchmark's C300 postings:
// about n docids drawn uniformly from [0, domain), cut into blockLen
// blocks, with impacts 1–10 skewed toward 1 (each step up has odds
// 1/3), so most postings score low while block maxima still vary from
// block to block.
func c300List(rng *rand.Rand, n, domain, blockLen int) *memImpactList {
	var docs, imps []uint32
	for d := 0; d < domain; d++ {
		if rng.Intn(domain) >= n {
			continue
		}
		imp := uint32(1)
		for imp < 10 && rng.Intn(3) == 0 {
			imp++
		}
		docs, imps = append(docs, uint32(d)), append(imps, imp)
	}
	return newMemImpactList(docs, imps, blockLen)
}

// TestTopKModesLongLists cross-checks both algorithms against the
// brute-force scorer on C300-shaped lists of 5k–50k docs over a 200k
// domain in 128-posting blocks: hundreds of blocks per list, so BMW's
// block pointers cross many blocks and its skips jump far. Every BMW
// pivot here also passes topkBMW's check that the pivot strictly
// increases, the invariant its forward-only block pointers rest on.
func TestTopKModesLongLists(t *testing.T) {
	rng := rand.New(rand.NewSource(300))
	scored := map[TopKMode]int{}
	for trial := 0; trial < 16; trial++ {
		lists := make([]*memImpactList, 1+rng.Intn(4))
		for i := range lists {
			lists[i] = c300List(rng, 5000+rng.Intn(45001), 200000, 128)
		}
		k := []int{1, 10, 100, 1000}[trial%4]
		want := bruteTopK(k, lists)
		for _, mode := range topkModes {
			var stats TopKStats
			got := TopK(mode, k, asImpactLists(lists), &stats)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s: k=%d got %v want %v", trial, mode, k, got, want)
			}
			scored[mode] += stats.DocsScored
		}
	}
	if scored[TopKBlockMax] >= scored[TopKExhaustive] {
		t.Fatalf("bmw scored %d docs, exhaustive %d: no skipping", scored[TopKBlockMax], scored[TopKExhaustive])
	}
	t.Logf("docs scored: %v", scored)
}

// TestTopKSkipToLastDocid: when BMW skips a block that ends at docid
// 2^32-1, the skip bound is 2^32 and no docid reaches it; a list
// already sitting on 2^32-1 must be dropped as exhausted, not left in
// place to be picked as the pivot again forever. Every mode runs with a
// deadline.
func TestTopKSkipToLastDocid(t *testing.T) {
	a := newMemImpactList([]uint32{1, math.MaxUint32}, []uint32{9, 1}, 1)
	b := newMemImpactList([]uint32{2}, []uint32{3}, 1)
	want := []ScoredDoc{{Doc: 1, Score: 9}, {Doc: 2, Score: 3}}
	for _, mode := range topkModes {
		done := make(chan []ScoredDoc, 1)
		go func() { done <- TopK(mode, 2, asImpactLists([]*memImpactList{a, b}), nil) }()
		select {
		case got := <-done:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: got %v want %v", mode, got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: no answer after 2 s", mode)
		}
	}
}

// stuckList hands out cursors whose SeekGEQ never moves: a broken
// cursor that stalls BMW's pivot.
type stuckList struct{ *memImpactList }

func (l stuckList) Cursor() ImpactCursor {
	return stuckCursor{&memImpactCursor{l: l.memImpactList, pos: -1}}
}

type stuckCursor struct{ *memImpactCursor }

func (c stuckCursor) SeekGEQ(uint32) (uint32, bool) { return c.l.docs[c.pos], true }

// TestTopKBlockMaxPivotMustAdvance: the forward-only block pointers are
// right only while the pivot strictly increases, so topkBMW checks
// that on every iteration. With cursors that ignore seeks, the second
// pivot's blocks cannot win, the skip moves nothing and the same pivot
// comes back: BMW must panic there rather than loop or answer.
func TestTopKBlockMaxPivotMustAdvance(t *testing.T) {
	a := newMemImpactList([]uint32{1, 2, 3}, []uint32{5, 1, 1}, 1)
	b := newMemImpactList([]uint32{2, 3}, []uint32{1, 1}, 1)
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		TopK(TopKBlockMax, 1, []ImpactList{stuckList{a}, stuckList{b}}, nil)
	}()
	select {
	case r := <-done:
		if r == nil {
			t.Fatal("BMW answered although its pivot stalled")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("BMW loops on a stalled pivot")
	}
}

// BenchmarkTopK times the two modes over 1, 2 and 3 C300-shaped lists
// of 50k, 20k and 5k docs (k = 10). The lists are the test fake
// memImpactList, whose cursor seeks with sort.Search, so this times the
// scorers' own work, not index's block-decoding or galloping cursors,
// and it does not represent served BMW. BenchmarkTopKDenseVsBMW
// (internal/index) times BMW and the dense scorer over real BVIX3 v4
// lists, and index.topk_us on the benchmark spine times the served
// path. Run with -benchmem for allocs/op.
func BenchmarkTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(300))
	var lists []ImpactList
	for _, n := range []int{50000, 20000, 5000} {
		lists = append(lists, c300List(rng, n, 200000, 128))
	}
	for n := 1; n <= len(lists); n++ {
		for _, mode := range topkModes {
			b.Run(fmt.Sprintf("%s/lists=%d", mode, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sinkRanked = TopK(mode, 10, lists[:n], nil)
				}
			})
		}
	}
}

var sinkRanked []ScoredDoc

// TestTopKStatsCounters sanity-checks the work accounting.
func TestTopKStatsCounters(t *testing.T) {
	a := newMemImpactList([]uint32{1, 2, 3, 4, 5}, []uint32{1, 1, 1, 1, 1}, 2)
	var stats TopKStats
	TopK(TopKExhaustive, 2, asImpactLists([]*memImpactList{a}), &stats)
	if stats.Lists != 1 || stats.Postings != 5 || stats.BlocksTotal != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.DocsScored != 5 {
		t.Fatalf("exhaustive must score every doc: %+v", stats)
	}
	if stats.Mode != "exhaustive" {
		t.Fatalf("mode = %q", stats.Mode)
	}
}
