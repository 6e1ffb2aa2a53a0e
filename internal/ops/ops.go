// Package ops implements the query operators the paper measures on top
// of compressed postings: SvS intersection with skip pointers (§4.3,
// Appendix B), merge-based intersection, k-way union, and the
// combined intersection/union query plans of the SSB and TPCH workloads
// (e.g. (L1 ∪ L2) ∩ (L3 ∪ L4) ∩ L5).
package ops

import (
	"errors"
	"sort"

	"repro/internal/core"
)

// IntersectSorted is the reference merge intersection of plain lists.
func IntersectSorted(a, b []uint32) []uint32 {
	out := make([]uint32, 0, min(len(a), len(b)))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// UnionSorted is the reference merge union of plain lists.
func UnionSorted(a, b []uint32) []uint32 {
	out := make([]uint32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// mergeRatio is the size ratio below which SvS switches to merge-based
// intersection (paper footnote 8: "if two lists are of similar size, we
// switch to merge-based intersection").
const mergeRatio = 16

// Intersect computes the intersection of k compressed postings,
// covering the paper's two native cases plus their mixture (§B.1):
//
//   - same-codec bitmaps AND natively on the compressed form, then the
//     running (uncompressed) result merges with each remaining operand;
//   - list postings use SvS: decompress the shortest list and probe the
//     longer ones via skip pointers, switching to a merge when sizes
//     are similar (footnote 8);
//   - mixed families fall back to decompress-and-merge for the
//     non-seekable side ("bitmap vs list", §B.1).
//
// Intersect owns the buffer it decodes and returns it: the answer is a
// fresh slice the caller may write into, and for two or more operands
// it is non-nil even when empty. postings is never reordered.
func Intersect(postings []core.Posting) ([]uint32, error) {
	switch len(postings) {
	case 0:
		return nil, nil
	case 1:
		return postings[0].Decompress(), nil
	}
	// Sorting a stack copy (up to 8 operands) leaves the caller's slice
	// as it was without allocating.
	var buf [8]core.Posting
	sorted := append(buf[:0], postings...)
	sortPostingsByLen(sorted)

	var cur []uint32
	haveCur := false
	rest := sorted[1:]
	// Native compressed-form AND for the first same-codec pair.
	if inter, ok := sorted[0].(core.Intersecter); ok {
		r, err := inter.IntersectWith(sorted[1])
		switch {
		case err == nil:
			cur = r
			haveCur = true
			rest = sorted[2:]
		case errors.Is(err, core.ErrIncompatible):
			// Mixed operands: the bucket×seeker kernel below, or the
			// generic path.
		default:
			return nil, err
		}
	}
	if !haveCur {
		// Mixed-representation fast path: a bucketed bitmap against a
		// skip-pointered list intersects with neither side decompressed.
		if r, ok := mixedIntersect(sorted[0], sorted[1]); ok {
			cur = r
			haveCur = true
			rest = sorted[2:]
		}
	}
	if !haveCur {
		cur = sorted[0].Decompress()
	}
	for _, p := range rest {
		if len(cur) == 0 {
			break
		}
		cur = probeAnd(cur, p)
	}
	if cur == nil {
		cur = []uint32{}
	}
	return cur, nil
}

// probeAnd intersects the running uncompressed result with one
// compressed operand: skip/merge probes for Seekers and
// decompress-and-merge otherwise, both in place on cur, and the native
// bitmap-vs-list operator for ListProbers, whose fresh result replaces
// cur.
func probeAnd(cur []uint32, p core.Posting) []uint32 {
	if s, ok := p.(core.Seeker); ok {
		if p.Len() < mergeRatio*len(cur) {
			return mergeProbe(cur, s.Iterator())
		}
		return skipProbe(cur, s.Iterator())
	}
	if lp, ok := p.(core.ListProber); ok {
		return lp.IntersectList(cur)
	}
	return intersectAdaptiveInPlace(cur, p.Decompress())
}

// skipProbe keeps the elements of cur present in it, probing via SeekGEQ.
//
// Aliasing contract: the result is written into cur's own prefix
// (out := cur[:0]); the write index never passes the read index, so the
// filter is safe in place, and the returned slice shares cur's backing
// array. Callers must treat cur as consumed.
func skipProbe(cur []uint32, it core.Iterator) []uint32 {
	out := cur[:0]
	for _, v := range cur {
		got, ok := it.SeekGEQ(v)
		if !ok {
			break
		}
		if got == v {
			out = append(out, v)
		}
	}
	return out
}

// mergeProbe advances both sides in lockstep (merge-based intersection
// for similar-size lists). It filters cur in place under the same
// aliasing contract as skipProbe: the returned slice is a prefix of
// cur's backing array and cur is consumed.
func mergeProbe(cur []uint32, it core.Iterator) []uint32 {
	out := cur[:0]
	w, ok := it.Next()
	for _, v := range cur {
		for ok && w < v {
			w, ok = it.Next()
		}
		if !ok {
			break
		}
		if w == v {
			out = append(out, v)
		}
	}
	return out
}

// intersectSortedInPlace intersects cur with b, writing the result into
// cur's prefix — the same aliasing contract as skipProbe/mergeProbe:
// the write index never passes the read index, so cur's backing array
// doubles as the output and the input slice must be considered consumed.
func intersectSortedInPlace(cur, b []uint32) []uint32 {
	out := cur[:0]
	i, j := 0, 0
	for i < len(cur) && j < len(b) {
		switch {
		case cur[i] < b[j]:
			i++
		case cur[i] > b[j]:
			j++
		default:
			out = append(out, cur[i])
			i++
			j++
		}
	}
	return out
}

// sortPostingsByLen orders Intersect's operands shortest first. It runs
// on every call; this insertion sort is stable like sort.SliceStable
// but closure-free, so steady-state intersection does not allocate for
// ordering.
func sortPostingsByLen(ps []core.Posting) {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].Len() < ps[j-1].Len(); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
}

// Union computes the union of k compressed postings. The operands
// choose the path (denseUnion): when their summed length is a fair
// fraction of the span their values cover, every operand ORs into one
// word array and a single pass extracts the result (dense.go) — the
// paper's finding that bitmaps win union on dense data (§4.3), applied
// to the result. Otherwise same-codec bitmap pairs OR natively on the
// compressed form and everything else is decompressed and merged
// linearly, which also covers mixed families.
//
// A leading operand that ORs natively but not into words (the
// run-length bitmaps: WAH, EWAH, Concise, ...) keeps the native pair:
// its compressed-form OR already runs word-wise, and bounding its
// values would cost a full decode.
func Union(postings []core.Posting) ([]uint32, error) {
	switch len(postings) {
	case 0:
		return nil, nil
	case 1:
		return postings[0].Decompress(), nil
	}
	if keepsNativePair(postings) {
		return unionSparse(postings, nil)
	}
	a := getAccumulator()
	out, err := a.union(postings)
	putAccumulator(a)
	return out, err
}

// UnionWords is Union for a caller that takes a dense answer as words:
// where Union would OR the operands into its pooled word array and
// drain it, UnionWords ORs them into fresh words and returns those
// (nil docs); any other union comes back as Union's sorted docs (nil
// words). The words are the caller's.
func UnionWords(postings []core.Posting) ([]uint32, *Words, error) {
	if len(postings) == 0 {
		return nil, nil, nil
	}
	if keepsNativePair(postings) {
		docs, err := unionSparse(postings, nil)
		return docs, nil, err
	}
	a := getAccumulator()
	docs, w, err := a.unionOrWords(postings, true)
	putAccumulator(a)
	return docs, w, err
}

// VisitUnionWords is UnionWords for a caller that reads the answer once
// and lets it go: visit gets it as UnionWords would return it, but a
// dense answer is the pooled accumulator's own words, valid only while
// visit runs. visit may clear bits of them; it must not keep them or
// write into docs.
func VisitUnionWords(postings []core.Posting, visit func(docs []uint32, w *Words)) error {
	if len(postings) == 0 {
		visit(nil, nil)
		return nil
	}
	if keepsNativePair(postings) {
		docs, err := unionSparse(postings, nil)
		if err == nil {
			visit(docs, nil)
		}
		return err
	}
	a := getAccumulator()
	docs, w, err := a.unionOrWords(postings, false)
	if err == nil {
		visit(docs, w)
	}
	if w != nil {
		clear(w.W)
	}
	putAccumulator(a)
	return err
}

// keepsNativePair reports whether a union of two or more operands
// takes the native pair without bounding them: its leading operand ORs
// natively but not into words.
func keepsNativePair(postings []core.Posting) bool {
	_, native := postings[0].(core.Unioner)
	_, words := postings[0].(core.BucketProber)
	return len(postings) > 1 && native && !words
}

// unionSparse is Union's merge side: a native same-codec pair first,
// then decompress-and-merge. decoded, when non-nil, holds the decodes
// made while bounding the operands (nil entries for operands bounded
// without one); they are used instead of decompressing again.
func unionSparse(postings []core.Posting, decoded [][]uint32) ([]uint32, error) {
	decode := func(i int) []uint32 {
		if decoded != nil && decoded[i] != nil {
			return decoded[i]
		}
		return postings[i].Decompress()
	}
	var cur []uint32
	haveCur := false
	rest := 1
	if u, ok := postings[0].(core.Unioner); ok {
		r, err := u.UnionWith(postings[1])
		switch {
		case err == nil:
			cur = r
			haveCur = true
			rest = 2
		case errors.Is(err, core.ErrIncompatible):
			// Mixed operands: generic path below.
		default:
			return nil, err
		}
	}
	lists := make([][]uint32, 0, len(postings)-rest+1)
	if haveCur {
		if rest == len(postings) {
			return cur, nil
		}
		lists = append(lists, cur)
	} else {
		lists = append(lists, decode(0))
	}
	for i := rest; i < len(postings); i++ {
		lists = append(lists, decode(i))
	}
	return unionMerge(lists), nil
}

// heapWidth is the operand count above which unionMerge switches from
// pairwise merging (O(N·k) worst case) to a k-way heap merge
// (O(N log k)).
const heapWidth = 8

// UnionMany unions k sorted lists. It is the one plain-list docid
// union: the cached index OR, the live index's per-segment answers, the
// router's per-shard answers and table.SelectAny all use it. Dense inputs accumulate into one word array (denseUnion); sparse
// ones merge (unionMerge). It may reorder lists but never writes into a
// list, and the result never aliases one.
func UnionMany(lists [][]uint32) []uint32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		out := make([]uint32, len(lists[0]))
		copy(out, lists[0])
		return out
	}
	if lo, hi, total := listBounds(lists); denseUnion(total, lo, hi) {
		return unionListWords(lists, lo, hi)
	}
	return unionMerge(lists)
}

// unionMerge merges k >= 2 sorted lists: pairwise smallest-first for
// few lists, a k-way heap merge for many (wide disjunctive queries).
func unionMerge(lists [][]uint32) []uint32 {
	if len(lists) >= heapWidth {
		return unionHeapMerge(lists)
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	cur := UnionSorted(lists[0], lists[1])
	for _, l := range lists[2:] {
		cur = UnionSorted(cur, l)
	}
	return cur
}

// heapHead is one cursor in the k-way merge heap.
type heapHead struct {
	value uint32
	list  int
	pos   int
}

// unionHeapMerge runs an N log k k-way merge with duplicate collapsing.
func unionHeapMerge(lists [][]uint32) []uint32 {
	h := make([]heapHead, 0, len(lists))
	total := 0
	for i, l := range lists {
		total += len(l)
		if len(l) > 0 {
			h = append(h, heapHead{value: l[0], list: i})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := make([]uint32, 0, total)
	for len(h) > 0 {
		top := h[0]
		if n := len(out); n == 0 || out[n-1] != top.value {
			out = append(out, top.value)
		}
		l := lists[top.list]
		if top.pos+1 < len(l) {
			h[0] = heapHead{value: l[top.pos+1], list: top.list, pos: top.pos + 1}
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
	return out
}

func siftDown(h []heapHead, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].value < h[small].value {
			small = l
		}
		if r < len(h) && h[r].value < h[small].value {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// Engine is a stateless stand-in with a single caller: traceBoolean in
// benchmark/serve.go, which times Default().Union as
// ops.union_engine_us. It goes when that metric does. Nothing in cmd/
// or internal/ calls it outside its tests; use Union.
type Engine struct{}

// Default returns an Engine.
func Default() *Engine { return &Engine{} }

// Union returns Union(postings).
func (*Engine) Union(postings []core.Posting) ([]uint32, error) { return Union(postings) }
