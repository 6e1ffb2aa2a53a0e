package index

import "sort"

// tomb is one deleted docid: it masks every copy of doc in a segment
// whose epoch is at most bound.
type tomb struct {
	doc   uint32
	bound int
}

// tombSet is the tombstone overlay, ascending by docid. A published set
// is immutable: Delete, replay and the compaction commit replace it with
// a new one, so a query that pinned it under mu may walk it after
// letting mu go.
type tombSet []tomb

func tombsFromMap(bounds map[uint32]int) tombSet {
	ts := make(tombSet, 0, len(bounds))
	for d, b := range bounds {
		ts = append(ts, tomb{d, b})
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].doc < ts[j].doc })
	return ts
}

// bounds is the set in the manifest's map form.
func (ts tombSet) bounds() map[uint32]int {
	m := make(map[uint32]int, len(ts))
	for _, t := range ts {
		m[t.doc] = t.bound
	}
	return m
}

// search returns the position of doc's tombstone, or where it would go.
func (ts tombSet) search(doc uint32) int {
	return sort.Search(len(ts), func(i int) bool { return ts[i].doc >= doc })
}

// masked reports whether a tombstone masks doc for a segment of the
// given epoch.
func (ts tombSet) masked(doc uint32, epoch int) bool {
	i := ts.search(doc)
	return i < len(ts) && ts[i].doc == doc && ts[i].bound >= epoch
}

// with returns a new set that also holds doc's tombstone at bound,
// replacing any tombstone doc had; ts itself is left as it was.
func (ts tombSet) with(doc uint32, bound int) tombSet {
	i := ts.search(doc)
	j := i
	if j < len(ts) && ts[j].doc == doc {
		j++
	}
	out := make(tombSet, 0, len(ts)+1)
	out = append(out, ts[:i]...)
	out = append(out, tomb{doc, bound})
	return append(out, ts[j:]...)
}

// without returns the tombstones of ts that applied does not hold with
// the same bound: what is left once a merge has applied applied.
func (ts tombSet) without(applied tombSet) tombSet {
	var out tombSet
	j := 0
	for _, t := range ts {
		for j < len(applied) && applied[j].doc < t.doc {
			j++
		}
		if j < len(applied) && applied[j] == t {
			continue
		}
		out = append(out, t)
	}
	return out
}

// maskedFrom is masked for callers that ask about ascending docids: *j
// is where the walk stands in ts, and advances past smaller docids.
func (ts tombSet) maskedFrom(j *int, doc uint32, epoch int) bool {
	for *j < len(ts) && ts[*j].doc < doc {
		*j++
	}
	return *j < len(ts) && ts[*j].doc == doc && ts[*j].bound >= epoch
}

// mask filters the docids a tombstone masks for a segment of the given
// epoch out of an ascending list, in place.
func (ts tombSet) mask(list []uint32, epoch int) []uint32 {
	if len(ts) == 0 || len(list) == 0 {
		return list
	}
	out := list[:0]
	j := 0
	for _, d := range list {
		if !ts.maskedFrom(&j, d, epoch) {
			out = append(out, d)
		}
	}
	return out
}

// countIn counts the tombstones that mask a document of a sealed
// segment, walking the set against the segment's docid runs.
func (ts tombSet) countIn(r idRanges, epoch int) int {
	n, run := 0, 0
	for _, t := range ts {
		for run < len(r.starts) && t.doc >= r.starts[run] && t.doc-r.starts[run] >= r.lens[run] {
			run++
		}
		if run == len(r.starts) {
			break
		}
		if t.doc >= r.starts[run] && t.bound >= epoch {
			n++
		}
	}
	return n
}

// countHeld counts the tombstones that mask a document of an in-memory
// segment.
func (ts tombSet) countHeld(m *MemSegment, epoch int) int {
	n := 0
	for _, t := range ts {
		if t.bound >= epoch && m.Has(t.doc) {
			n++
		}
	}
	return n
}
