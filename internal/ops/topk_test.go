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

// Decoded is false: the fake's blocks count as the cursor loads them.
func (m *memImpactList) Decoded() bool { return false }

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

// stuckList is a broken list whose Block serves block 0 whatever
// block is asked for: the cursor lands below its seek target, and a
// seek stalls BMW's pivot.
type stuckList struct{ *memImpactList }

func (l stuckList) Block(_ int, buf []uint32) ([]uint32, []uint8) {
	return l.memImpactList.Block(0, buf)
}

// TestTopKBlockMaxPivotMustAdvance: the forward-only block pointers are
// right only while the pivot strictly increases, so topkBMW checks
// that on every iteration. With a list whose blocks all read as its
// first, the second pivot's blocks cannot win, the skip lands the
// cursors below its target and the same pivot comes back: BMW must
// panic there rather than loop or answer.
func TestTopKBlockMaxPivotMustAdvance(t *testing.T) {
	a := newMemImpactList([]uint32{1, 2, 3, 4, 5, 6}, []uint32{5, 1, 1, 1, 1, 1}, 1)
	b := newMemImpactList([]uint32{2, 3, 4, 5, 6}, []uint32{1, 1, 1, 1, 1}, 1)
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

// copyingList is memImpactList with the other Block contract: it
// copies a block's docids into buf rather than slicing its own.
type copyingList struct{ *memImpactList }

func (l copyingList) Block(b int, buf []uint32) ([]uint32, []uint8) {
	docs, imps := l.memImpactList.Block(b, nil)
	return buf[:copy(buf, docs)], imps
}

// TestImpactCursorSeekGEQ checks the cursor's galloping seekGEQ, mixed
// with next, against a sort.Search reference over random target
// sequences that include a seek before the first next, repeated
// targets, targets at or below the current doc, and targets past the
// end, on lists of one to ~150 blocks of 1 to 128 postings, through
// both Block contracts. An exhausted cursor must stay exhausted.
func TestImpactCursorSeekGEQ(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20000)
		domain := n + rng.Intn(4*n)
		var docs, imps []uint32
		for d := 0; d < domain && len(docs) < n; d++ {
			if rng.Intn(domain) < n {
				docs, imps = append(docs, uint32(d)), append(imps, 1+uint32(rng.Intn(20)))
			}
		}
		if len(docs) == 0 {
			docs, imps = []uint32{uint32(domain)}, []uint32{1}
		}
		mem := newMemImpactList(docs, imps, 1+rng.Intn(128))
		last := docs[len(docs)-1]
		for _, l := range []ImpactList{mem, copyingList{mem}} {
			kind := fmt.Sprintf("%T/%d", l, mem.blockLen)
			for walk := 0; walk < 8; walk++ {
				var c impactCursor
				c.reset(l)
				pos := -1 // the reference cursor
				var target uint32
				for op := 0; op < 120; op++ {
					var got, want uint32
					var gotOK, wantOK bool
					// Even walks seek before their first next.
					if (op > 0 || walk%2 == 1) && rng.Intn(5) == 0 {
						got, gotOK = c.next()
						pos++
					} else {
						cur := docs[min(max(pos, 0), len(docs)-1)]
						switch r := rng.Intn(12); {
						case r == 0: // repeat the previous target
						case r <= 2: // at or below the current doc
							target = cur - min(cur, uint32(rng.Intn(50)))
						case r == 3: // past the end
							target = last + 1 + uint32(rng.Intn(10))
						case r <= 8: // a short hop
							target = cur + uint32(rng.Intn(300))
						default: // a long hop
							target = cur + uint32(rng.Intn(domain/8+1))
						}
						got, gotOK = c.seekGEQ(target)
						if pos < len(docs) && (pos < 0 || docs[pos] < target) {
							lo := max(pos, 0)
							pos = lo + sort.Search(len(docs)-lo, func(i int) bool { return docs[lo+i] >= target })
						}
					}
					if pos < len(docs) {
						want, wantOK = docs[pos], true
					}
					if got != want || gotOK != wantOK {
						t.Fatalf("trial %d %s walk %d op %d (target %d): got (%d, %v), want (%d, %v)",
							trial, kind, walk, op, target, got, gotOK, want, wantOK)
					}
					if wantOK && c.impact() != imps[pos] {
						t.Fatalf("trial %d %s walk %d op %d: impact %d, want %d",
							trial, kind, walk, op, c.impact(), imps[pos])
					}
				}
				// Run the cursor off the end: once exhausted, it stays so.
				for {
					if _, ok := c.next(); !ok {
						break
					}
				}
				for i := 0; i < 3; i++ {
					if d, ok := c.next(); ok {
						t.Fatalf("trial %d %s walk %d: next after the end gave %d", trial, kind, walk, d)
					}
					if d, ok := c.seekGEQ(uint32(i)); ok {
						t.Fatalf("trial %d %s walk %d: seekGEQ(%d) after the end gave %d", trial, kind, walk, i, d)
					}
				}
			}
		}
	}
}

// BenchmarkTopK times the two modes over 1, 2 and 3 C300-shaped lists
// of 50k, 20k and 5k docs (k = 10). The lists are memImpactList, whose
// Block slices memory, walked by the served cursor: this times the
// scorers and the cursor's galloping, not block decoding.
// BenchmarkTopKDenseVsBMW (internal/index) times BMW and the dense
// scorer over real BVIX3 v4 lists, and index.topk_us on the benchmark
// spine times the served path. Run with -benchmem for allocs/op.
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
