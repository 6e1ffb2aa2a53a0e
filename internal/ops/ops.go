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
func Intersect(postings []core.Posting) ([]uint32, error) {
	switch len(postings) {
	case 0:
		return nil, nil
	case 1:
		return postings[0].Decompress(), nil
	}
	// The heavy lifting shares the engine's pooled arena: the operand
	// sort and the initial decompression of the smallest operand reuse
	// pooled scratch instead of allocating per call (the probe loop
	// itself lives in intersectInto / probeAnd, shared with Engine).
	// The result is copied out so callers own an exact-size slice and
	// the scratch can return to the pool.
	a := getArena()
	cur, err := intersectInto(a, postings)
	if err != nil {
		putArena(a)
		return nil, err
	}
	out := make([]uint32, len(cur))
	copy(out, cur)
	a.put(cur)
	putArena(a)
	return out, nil
}

// skipProbe keeps the elements of cur present in it, probing via SeekGEQ.
//
// Aliasing contract: the result is written into cur's own prefix
// (out := cur[:0]); the write index never passes the read index, so the
// filter is safe in place, and the returned slice shares cur's backing
// array. Callers must treat cur as consumed — in arena terms, cur and
// the result are ONE buffer, returned to the pool at most once.
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

// Union computes the union of k compressed postings. Same-codec bitmap
// pairs OR natively on the compressed form; everything else is
// decompressed and merged linearly (§4.3), which also covers mixed
// families.
func Union(postings []core.Posting) ([]uint32, error) {
	switch len(postings) {
	case 0:
		return nil, nil
	case 1:
		return postings[0].Decompress(), nil
	}
	var cur []uint32
	haveCur := false
	rest := postings[1:]
	if u, ok := postings[0].(core.Unioner); ok {
		r, err := u.UnionWith(postings[1])
		switch {
		case err == nil:
			cur = r
			haveCur = true
			rest = postings[2:]
		case errors.Is(err, core.ErrIncompatible):
			// Mixed operands: generic path below.
		default:
			return nil, err
		}
	}
	lists := make([][]uint32, 0, len(rest)+1)
	if haveCur {
		if len(rest) == 0 {
			return cur, nil
		}
		lists = append(lists, cur)
	} else {
		lists = append(lists, postings[0].Decompress())
	}
	for _, p := range rest {
		lists = append(lists, p.Decompress())
	}
	return UnionMany(lists), nil
}

// heapWidth is the operand count above which UnionMany switches from
// pairwise merging (O(N·k) worst case) to a k-way heap merge
// (O(N log k)).
const heapWidth = 8

// UnionMany merges k sorted lists: pairwise smallest-first for few
// lists, a k-way heap merge for many (wide disjunctive queries). It is
// the one plain-list docid merge: the cached index OR, the live index's
// per-segment answers and the router's per-shard answers all use it. It
// reorders lists but never writes into a list, and the result never
// aliases one.
func UnionMany(lists [][]uint32) []uint32 {
	switch len(lists) {
	case 0:
		return nil
	case 1:
		out := make([]uint32, len(lists[0]))
		copy(out, lists[0])
		return out
	}
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
