package index

import (
	"sort"

	"repro/internal/ops"
)

// MemSegment is the live index's mutable in-memory segment: an
// uncompressed inverted index over global document IDs, holding every
// document acked since the last seal. It stores the raw texts alongside
// the postings so sealing can re-feed them through the sharded Builder
// — the sealed BVIX3 segment is then byte-identical to a from-scratch
// build of the same documents.
//
// Postings are kept sorted by global docid. Normal adds append (ids are
// assigned monotonically), but a re-added document keeps its original
// id, which may sort below the segment's tail — Add handles both.
// Deletes of documents still in the mutable segment are physical:
// the posting entries are removed outright, so tombstones only ever
// target sealed segments.
//
// MemSegment does its own locking via the owning Live's mutex; it is
// not safe for concurrent use on its own.
type MemSegment struct {
	postings map[string][]uint32
	freqs    map[string][]uint16
	texts    map[uint32]string
}

// NewMemSegment returns an empty mutable segment.
func NewMemSegment() *MemSegment {
	return &MemSegment{
		postings: map[string][]uint32{},
		freqs:    map[string][]uint16{},
		texts:    map[uint32]string{},
	}
}

// Add indexes text under the global docid. The tokenization and
// frequency clamping match Builder.Build exactly, so a sealed segment
// reproduces what the mutable segment was serving.
func (m *MemSegment) Add(doc uint32, text string) {
	m.texts[doc] = text
	counts := map[string]int{}
	for _, tok := range Tokenize(text) {
		counts[tok]++
	}
	for t, f := range counts {
		list := m.postings[t]
		freq := uint16(min(f, 65535))
		if n := len(list); n == 0 || list[n-1] < doc {
			m.postings[t] = append(list, doc)
			m.freqs[t] = append(m.freqs[t], freq)
			continue
		}
		// Re-added docid below the tail: sorted insert.
		i := sort.Search(len(list), func(i int) bool { return list[i] >= doc })
		list = append(list, 0)
		copy(list[i+1:], list[i:])
		list[i] = doc
		m.postings[t] = list
		fr := append(m.freqs[t], 0)
		copy(fr[i+1:], fr[i:])
		fr[i] = freq
		m.freqs[t] = fr
	}
}

// Remove physically deletes the document from every posting list it
// appears in. It reports whether the document was present.
func (m *MemSegment) Remove(doc uint32) bool {
	text, ok := m.texts[doc]
	if !ok {
		return false
	}
	delete(m.texts, doc)
	seen := map[string]struct{}{}
	for _, tok := range Tokenize(text) {
		if _, dup := seen[tok]; dup {
			continue
		}
		seen[tok] = struct{}{}
		list := m.postings[tok]
		i := sort.Search(len(list), func(i int) bool { return list[i] >= doc })
		if i >= len(list) || list[i] != doc {
			continue
		}
		if len(list) == 1 {
			delete(m.postings, tok)
			delete(m.freqs, tok)
			continue
		}
		m.postings[tok] = append(list[:i], list[i+1:]...)
		fr := m.freqs[tok]
		m.freqs[tok] = append(fr[:i], fr[i+1:]...)
	}
	return true
}

// Has reports whether the document is live in this segment.
func (m *MemSegment) Has(doc uint32) bool {
	_, ok := m.texts[doc]
	return ok
}

// Docs reports the number of live documents.
func (m *MemSegment) Docs() int { return len(m.texts) }

// Text returns the stored text for a live document.
func (m *MemSegment) Text(doc uint32) string { return m.texts[doc] }

// SortedDocIDs returns the live global docids in ascending order — the
// sealing order, so the Builder's insertion-ordered local ids map back
// to globals through a monotonic docmap.
func (m *MemSegment) SortedDocIDs() []uint32 {
	ids := make([]uint32, 0, len(m.texts))
	for id := range m.texts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Postings returns the sorted global docid list and aligned frequency
// payload for a term; both nil when the term is absent. The slices are
// live — callers under the Live read lock must not mutate them.
func (m *MemSegment) Postings(term string) ([]uint32, []uint16) {
	return m.postings[term], m.freqs[term]
}

// memConjunctive intersects the segment's posting lists for terms.
func memConjunctive(m *MemSegment, terms []string) []uint32 {
	var out []uint32
	for i, t := range terms {
		list, _ := m.Postings(t)
		if i == 0 {
			out = append(out, list...) // postings are live: never hand them out
		} else {
			out = ops.IntersectSorted(out, list)
		}
		if len(out) == 0 {
			return nil
		}
	}
	return out
}

// memDisjunctive unions the segment's posting lists for terms.
func memDisjunctive(m *MemSegment, terms []string) []uint32 {
	var lists [][]uint32
	for _, t := range terms {
		if list, _ := m.Postings(t); len(list) > 0 {
			lists = append(lists, list)
		}
	}
	return ops.UnionMany(lists)
}

// topkLists is Index.topkLists for the segment: each term occurrence's
// postings with impacts derived from its frequencies, duplicated terms
// included, so a live top-k ranks this segment through the same scorer
// as a sealed one.
func (m *MemSegment) topkLists(terms []string) []ops.ImpactList {
	var lists []ops.ImpactList
	for _, t := range terms {
		if list, freqs := m.Postings(t); len(list) > 0 {
			lists = append(lists, &termImpactList{meta: buildImpactMeta(list, freqs), vals: list})
		}
	}
	return lists
}
