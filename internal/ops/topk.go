// Ranked top-k retrieval over impact-annotated posting lists. Two
// modes share one heap — Block-Max, the served mode, and an exhaustive
// document-at-a-time multiway merge, its differential reference — and
// both return the identical result list: the k highest-scoring
// documents ordered by (score desc, doc asc), where a document's score
// is the sum of its quantized per-term impacts across every query term
// that contains it (disjunctive semantics). Block-Max runs one of two
// scorers, chosen from the operands alone: Block-Max-WAND over cursors,
// or, for a dense multi-term query, one pooled array of scores
// (densetopk.go).
//
// Correctness of the pruning rules rests on one invariant: every
// scorer offers candidate documents in strictly increasing docid
// order. A candidate therefore displaces the heap minimum only when its
// score is STRICTLY greater — on a tie the incumbent has the smaller
// docid and wins — which makes "upper bound <= threshold" an exact
// prune, not an approximation: a pruned document could at best tie, and
// a tie always loses.
package ops

import (
	"math"
	"sort"
)

// TopKMode selects the ranked-retrieval algorithm.
type TopKMode int

const (
	// TopKExhaustive scores every document in the union of the query's
	// posting lists with a document-at-a-time multiway merge. It decodes
	// every block and is the reference Block-Max-WAND is differentially
	// tested against.
	TopKExhaustive TopKMode = iota
	// TopKBlockMax is Block-Max-WAND: WAND pivot selection on term
	// maxima, refined by per-block maxima — when the sum of the pivot
	// blocks' maxima cannot beat the threshold, the cursors skip
	// directly past the shallowest block boundary without decoding
	// anything. A query dense enough that those bounds cannot prune
	// (denseTopK) is scored in one score array instead.
	TopKBlockMax
)

// String returns the report name of the mode.
func (m TopKMode) String() string {
	switch m {
	case TopKExhaustive:
		return "exhaustive"
	case TopKBlockMax:
		return "bmw"
	default:
		return "TopKMode(?)"
	}
}

// ImpactList is a posting list annotated with quantized impacts and
// per-block maxima. Impact blocks are positional: block i covers
// postings [i*blockLen, (i+1)*blockLen) of the docid-sorted list, the
// same cut the physical block frame uses, so "skip this block" maps
// directly onto "never decode these compressed bytes".
type ImpactList interface {
	// Len reports the number of postings.
	Len() int
	// TermMax reports the maximum quantized impact over the whole list
	// (the term's score upper bound).
	TermMax() uint32
	// Blocks returns the block frame: last[i] is the last (largest)
	// docid of block i, strictly increasing in i, and max[i] the maximum
	// quantized impact within block i. Both have one entry per block;
	// the scorers read them and never write.
	Blocks() (last []uint32, max []uint8)
	// Block returns block b's docids and their impacts, equal in
	// length: decoded into buf, which must have room for one block, or
	// sliced from memory the list already holds. The caller reads them
	// before its next call with the same buf and never writes them.
	Block(b int, buf []uint32) (docs []uint32, imps []uint8)
	// Cursor returns a fresh forward cursor positioned before the first
	// posting.
	Cursor() ImpactCursor
}

// ImpactCursor walks an ImpactList in increasing docid order. Cursors
// move only forward; Impact is valid after a successful Next or
// SeekGEQ and reports the impact of the docid just returned.
type ImpactCursor interface {
	// Next advances to the next document.
	Next() (doc uint32, ok bool)
	// SeekGEQ advances to the first document >= target (never moving
	// backward). Lazy cursors decode only the landed-on block.
	SeekGEQ(target uint32) (doc uint32, ok bool)
	// Impact reports the quantized impact of the current document.
	Impact() uint32
	// BlocksDecoded reports how many physical blocks this cursor has
	// materialized so far — the skipping currency the bench gate audits.
	BlocksDecoded() int
}

// ScoredDoc is one ranked result: the one ranked-document type of the
// repo (index.Result is an alias), so rankings cross the engine, the
// live index, the router and the wire without conversion.
type ScoredDoc struct {
	Doc   uint32
	Score int
}

// TopKStats reports where a top-k evaluation spent its work. The
// decoded-vs-total block counters are the proof of real skipping:
// exhaustive always decodes everything, Block-Max-WAND must not. The
// dense scorer reads every block and counts, as DocsScored, the
// documents left with a nonzero score; Dense counts the evaluations
// it ran, under Mode "bmw".
type TopKStats struct {
	Mode          string `json:"mode"`
	Lists         int    `json:"lists"`
	Postings      int    `json:"postings"`
	BlocksTotal   int    `json:"blocksTotal"`
	BlocksDecoded int    `json:"blocksDecoded"`
	DocsScored    int    `json:"docsScored"`
	Dense         int    `json:"dense,omitempty"`
}

// Add folds another evaluation's counters into s — how a live index
// sums over its segments and a router over its shards. Mode
// keeps the first algorithm reported.
func (s *TopKStats) Add(o TopKStats) {
	if s.Mode == "" {
		s.Mode = o.Mode
	}
	s.Lists += o.Lists
	s.Postings += o.Postings
	s.BlocksTotal += o.BlocksTotal
	s.BlocksDecoded += o.BlocksDecoded
	s.DocsScored += o.DocsScored
	s.Dense += o.Dense
}

// topkHeap keeps the current k best results with the WORST at the root
// (lower score first, then larger docid), so the root's score is the
// threshold a new candidate must strictly beat.
type topkHeap struct {
	items []ScoredDoc
	k     int
}

// worse reports whether a ranks below b under (score desc, doc asc).
func worse(a, b ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// threshold is the score a candidate must strictly exceed, or -1 while
// the heap still has room.
func (h *topkHeap) threshold() int64 {
	if len(h.items) < h.k {
		return -1
	}
	return int64(h.items[0].Score)
}

// offer inserts d if it strictly beats the current worst. The scorers
// offer in increasing docid order, so for them a candidate tying the
// root's score always loses; MergeRanked offers in any order and the
// docid tiebreak in worse decides.
func (h *topkHeap) offer(d ScoredDoc) {
	if len(h.items) < h.k {
		h.items = append(h.items, d)
		// Sift up.
		i := len(h.items) - 1
		for i > 0 {
			parent := (i - 1) / 2
			if !worse(h.items[i], h.items[parent]) {
				break
			}
			h.items[i], h.items[parent] = h.items[parent], h.items[i]
			i = parent
		}
		return
	}
	if !worse(h.items[0], d) {
		return
	}
	h.items[0] = d
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(h.items) && worse(h.items[l], h.items[m]) {
			m = l
		}
		if r < len(h.items) && worse(h.items[r], h.items[m]) {
			m = r
		}
		if m == i {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}

// sorted returns the heap contents ordered best-first.
func (h *topkHeap) sorted() []ScoredDoc {
	out := h.items
	sort.Slice(out, func(i, j int) bool { return worse(out[j], out[i]) })
	return out
}

// MergeRanked returns the best k of every result in lists under the
// strict-beat order (score desc, doc asc) — the one ranked merge: the
// router folds per-shard top-k lists through it and the live index its
// per-segment candidates. A document appears in at most one list
// (shards and segments partition the documents), lists need not be
// sorted, and the cost is O(total log k).
func MergeRanked(lists [][]ScoredDoc, k int) []ScoredDoc {
	if k <= 0 {
		return nil
	}
	h := &topkHeap{k: k}
	for _, l := range lists {
		for _, d := range l {
			h.offer(d)
		}
	}
	return h.sorted()
}

// TopK returns the k highest-scoring documents across lists under the
// selected algorithm. Both modes return identical results; they differ
// only in how much work they skip. Empty lists are ignored; fewer than
// k results are returned when the union is smaller than k. stats, when
// non-nil, is filled with the evaluation's work counters.
func TopK(mode TopKMode, k int, lists []ImpactList, stats *TopKStats) []ScoredDoc {
	return topk(mode, denseTopKCut, k, lists, stats)
}

// TopKForced is TopK in TopKBlockMax mode with the cut between its two
// scorers moved by the caller: dense scores in the score array every
// query of two or more lists that the 16-bit guard admits and that
// holds at least one posting per 64 docids of its span (so the array
// stays within 16 words per posting), !dense runs Block-Max-WAND on
// every query. It exists so that BenchmarkTopKDenseVsBMW can time both
// scorers over real index lists on both sides of the cut; served paths
// call TopK.
func TopKForced(dense bool, k int, lists []ImpactList, stats *TopKStats) []ScoredDoc {
	cut := math.Inf(1)
	if dense {
		cut = 1.0 / 64
	}
	return topk(TopKBlockMax, cut, k, lists, stats)
}

// topk is TopK with denseTopK's cut as a parameter.
func topk(mode TopKMode, cut float64, k int, lists []ImpactList, stats *TopKStats) []ScoredDoc {
	if stats != nil {
		*stats = TopKStats{Mode: mode.String()}
	}
	if k <= 0 {
		return nil
	}
	live := make([]ImpactList, 0, len(lists))
	for _, il := range lists {
		if il != nil && il.Len() > 0 {
			live = append(live, il)
			if stats != nil {
				last, _ := il.Blocks()
				stats.Lists++
				stats.Postings += il.Len()
				stats.BlocksTotal += len(last)
			}
		}
	}
	h := &topkHeap{k: k}
	if mode == TopKBlockMax && len(live) >= 2 {
		if scored, blocks, ok := scoreDense(live, cut, h); ok {
			if stats != nil {
				stats.Dense, stats.DocsScored, stats.BlocksDecoded = 1, scored, blocks
			}
			return h.sorted()
		}
	}
	cursors := make([]ImpactCursor, len(live))
	for i, il := range live {
		cursors[i] = il.Cursor()
	}
	scored := 0
	switch mode {
	case TopKBlockMax:
		scored = topkBMW(live, cursors, h)
	default:
		scored = topkExhaustive(cursors, h)
	}
	if stats != nil {
		stats.DocsScored = scored
		for _, c := range cursors {
			stats.BlocksDecoded += c.BlocksDecoded()
		}
	}
	return h.sorted()
}

// topkExhaustive is the reference scorer: a DAAT multiway merge that
// fully scores every document in the union.
func topkExhaustive(cursors []ImpactCursor, h *topkHeap) int {
	type state struct {
		c   ImpactCursor
		doc uint32
	}
	act := make([]state, 0, len(cursors))
	for _, c := range cursors {
		if d, ok := c.Next(); ok {
			act = append(act, state{c, d})
		}
	}
	scored := 0
	for len(act) > 0 {
		d := act[0].doc
		for _, s := range act[1:] {
			if s.doc < d {
				d = s.doc
			}
		}
		var score uint32
		for i := 0; i < len(act); {
			if act[i].doc != d {
				i++
				continue
			}
			score += act[i].c.Impact()
			if nd, ok := act[i].c.Next(); ok {
				act[i].doc = nd
				i++
			} else {
				act[i] = act[len(act)-1]
				act = act[:len(act)-1]
			}
		}
		scored++
		h.offer(ScoredDoc{Doc: d, Score: int(score)})
	}
	return scored
}

// topkBMW implements Block-Max-WAND. The WAND pivot — the first
// docid at which enough term maxima stack up to beat the threshold —
// is re-checked against per-block maxima: when even the pivot blocks'
// summed maxima cannot beat the threshold, every cursor at or before
// the pivot skips past the shallowest block boundary (min over the
// pivot blocks' last docids) without decoding a single value.
//
// Each list's blk is the first block whose last docid is >= the latest
// pivot the list took part in, and it only moves forward. That finds
// the block a search from block 0 would find because the pivot strictly
// increases between iterations: after a skip every list at or before
// the pivot sits at or past the skip target, which lies beyond the
// pivot, and after an evaluation every list that was at the pivot has
// moved past it — so every current doc, the next pivot among them,
// exceeds the old pivot. The loop panics if that ever fails, which only
// a bug can cause. Over a query each block pointer crosses each block
// at most once.
func topkBMW(lists []ImpactList, cursors []ImpactCursor, h *topkHeap) int {
	type state struct {
		c    ImpactCursor
		last []uint32 // block last docids
		bmax []uint8  // block maxima
		blk  int      // first block with last[blk] >= the latest pivot
		max  int64
		doc  uint32
	}
	st := make([]*state, 0, len(lists))
	for i, il := range lists {
		c := cursors[i]
		if d, ok := c.Next(); ok {
			last, bmax := il.Blocks()
			st = append(st, &state{c: c, last: last, bmax: bmax, max: int64(il.TermMax()), doc: d})
		}
	}
	scored := 0
	prev := int64(-1) // the previous iteration's pivot
	for len(st) > 0 {
		// Keep lists ordered by current doc (insertion sort: the order
		// is nearly stable between iterations and n is query-sized).
		for i := 1; i < len(st); i++ {
			for j := i; j > 0 && st[j].doc < st[j-1].doc; j-- {
				st[j], st[j-1] = st[j-1], st[j]
			}
		}
		thr := h.threshold()
		// WAND pivot: first position where the summed maxima of the
		// prefix can strictly beat the threshold.
		p := -1
		var acc int64
		for i, s := range st {
			acc += s.max
			if acc > thr {
				p = i
				break
			}
		}
		if p < 0 {
			break // no document anywhere can beat the heap
		}
		pivot := st[p].doc
		for p+1 < len(st) && st[p+1].doc == pivot {
			p++
		}
		if int64(pivot) <= prev {
			panic("ops: Block-Max-WAND pivot did not advance")
		}
		prev = int64(pivot)
		// Shallow check: per-block maxima of the blocks that would
		// contain the pivot.
		var blockUB int64
		for _, s := range st[:p+1] {
			for s.blk < len(s.last) && s.last[s.blk] < pivot {
				s.blk++
			}
			if s.blk < len(s.last) {
				blockUB += int64(s.bmax[s.blk])
			}
		}
		if thr >= 0 && blockUB <= thr {
			// The pivot's blocks cannot produce a winner: jump past the
			// shallowest block boundary (or to the next list's doc,
			// whichever is nearer) without decoding.
			next := uint64(1) << 33 // past any docid
			for _, s := range st[:p+1] {
				if s.blk < len(s.last) {
					if bound := uint64(s.last[s.blk]) + 1; bound < next {
						next = bound
					}
				}
			}
			if p+1 < len(st) {
				if bound := uint64(st[p+1].doc); bound < next {
					next = bound
				}
			}
			if next >= uint64(1)<<32 {
				// No list follows the pivot and every pivot block ends at
				// docid 2^32-1 (a list with no block left holds nothing at
				// or past the pivot), so no remaining document can win.
				// Seeking to 2^32-1 instead would leave a list already
				// sitting there where it is, and the loop would spin.
				break
			}
			// Every list up to p sits at or before the pivot, so below
			// target.
			target := uint32(next)
			for i, s := range st[:p+1] {
				if v, ok := s.c.SeekGEQ(target); ok {
					s.doc = v
				} else {
					st[i] = nil
				}
			}
			st = compactStates(st)
			continue
		}
		// Full evaluation at the pivot document.
		var score int64
		for i := 0; i <= p; i++ {
			s := st[i]
			if s.doc < pivot {
				if v, ok := s.c.SeekGEQ(pivot); ok {
					s.doc = v
				} else {
					st[i] = nil
					continue
				}
			}
			if s.doc == pivot {
				score += int64(s.c.Impact())
			}
		}
		st = compactStates(st)
		scored++
		if score > thr {
			h.offer(ScoredDoc{Doc: pivot, Score: int(score)})
		}
		for i, s := range st {
			if s.doc != pivot {
				continue
			}
			if v, ok := s.c.Next(); ok {
				s.doc = v
			} else {
				st[i] = nil
			}
		}
		st = compactStates(st)
	}
	return scored
}

// compactStates removes nil (exhausted) entries in place.
func compactStates[T any](st []*T) []*T {
	out := st[:0]
	for _, s := range st {
		if s != nil {
			out = append(out, s)
		}
	}
	return out
}
