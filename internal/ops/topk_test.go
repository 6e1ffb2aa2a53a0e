package ops

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// memImpactList is a reference ImpactList over in-memory (doc, impact)
// pairs, cut into blocks of blockLen.
type memImpactList struct {
	docs     []uint32
	imps     []uint32
	blockLen int
}

func newMemImpactList(docs, imps []uint32, blockLen int) *memImpactList {
	return &memImpactList{docs: docs, imps: imps, blockLen: blockLen}
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

func (m *memImpactList) NumBlocks() int {
	return (len(m.docs) + m.blockLen - 1) / m.blockLen
}

func (m *memImpactList) BlockLast(i int) uint32 {
	end := (i+1)*m.blockLen - 1
	if end >= len(m.docs) {
		end = len(m.docs) - 1
	}
	return m.docs[end]
}

func (m *memImpactList) BlockMax(i int) uint32 {
	lo, hi := i*m.blockLen, (i+1)*m.blockLen
	if hi > len(m.imps) {
		hi = len(m.imps)
	}
	var mx uint32
	for _, v := range m.imps[lo:hi] {
		if v > mx {
			mx = v
		}
	}
	return mx
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

var topkModes = []TopKMode{TopKExhaustive, TopKMaxScore, TopKBlockMax}

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
	if got := TopK(TopKMaxScore, 0, asImpactLists([]*memImpactList{a}), nil); got != nil {
		t.Fatalf("k=0: got %v", got)
	}
}

// TestTopKModesRandomized cross-checks all three algorithms against the
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
