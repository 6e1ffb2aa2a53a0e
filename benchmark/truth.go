package main

import (
	"hash/crc32"
	"sort"
)

// truth is the benchmark's own naive index: for each vocabulary rank,
// the ascending documents that contain the term and how often. Every
// expected answer is computed from it, never from the index under test.
type truth struct {
	docs     [][]uint32
	freqs    [][]uint8 // min(occurrences, 255): the impact the ranking sums
	postings int       // Σ len(docs[t])

	score   []uint16 // scratch for topk, one slot per document
	touched []uint32
}

func buildTruth(c *corpus) *truth {
	tr := &truth{
		docs:  make([][]uint32, c.shape.vocab),
		freqs: make([][]uint8, c.shape.vocab),
		score: make([]uint16, len(c.docs)),
	}
	for d, words := range c.docs {
		for _, t := range words {
			l := tr.docs[t]
			if n := len(l); n > 0 && l[n-1] == uint32(d) {
				if tr.freqs[t][n-1] < 255 {
					tr.freqs[t][n-1]++
				}
				continue
			}
			tr.docs[t] = append(l, uint32(d))
			tr.freqs[t] = append(tr.freqs[t], 1)
			tr.postings++
		}
	}
	return tr
}

// hashSeed and hashStep make the order-sensitive FNV-1a-style hash of
// a docid sequence that stands in for the sequence itself.
const (
	hashSeed = 14695981039346656037
	hashStep = 1099511628211
)

func hashDocs(h uint64, docs []uint32) uint64 {
	for _, d := range docs {
		h = (h ^ uint64(d)) * hashStep
	}
	return h
}

// gotDocs reports whether docs, an answer obtained in-process, is the
// expected answer to boolean query q.
func (q *query) gotDocs(docs []uint32, err error) (map[string]int, bool) {
	return map[string]int{"docs": len(docs)}, err == nil && len(docs) == q.wantN && hashDocs(hashSeed, docs) == q.wantH
}

// and is a naive k-way sorted-list intersection.
func (tr *truth) and(terms []int) []uint32 {
	cur := tr.docs[terms[0]]
	for _, t := range terms[1:] {
		other := tr.docs[t]
		out := make([]uint32, 0, min(len(cur), len(other)))
		for i, j := 0, 0; i < len(cur) && j < len(other); {
			switch {
			case cur[i] < other[j]:
				i++
			case cur[i] > other[j]:
				j++
			default:
				out = append(out, cur[i])
				i, j = i+1, j+1
			}
		}
		cur = out
	}
	return cur
}

// or is a naive union: mark, then sweep the document space.
func (tr *truth) or(terms []int) []uint32 {
	for _, t := range terms {
		for _, d := range tr.docs[t] {
			tr.score[d] = 1
		}
	}
	var out []uint32
	for d, s := range tr.score {
		if s != 0 {
			out = append(out, uint32(d))
			tr.score[d] = 0
		}
	}
	return out
}

// rankedDoc is one expected top-k entry.
type rankedDoc struct {
	doc   uint32
	score int
}

// topk is the brute-force ranking: every document containing any term
// scores Σ min(freq,255), ordered by score descending, docid ascending.
func (tr *truth) topk(terms []int, k int) []rankedDoc {
	tr.touched = tr.touched[:0]
	for _, t := range terms {
		for i, d := range tr.docs[t] {
			if tr.score[d] == 0 {
				tr.touched = append(tr.touched, d)
			}
			tr.score[d] += uint16(tr.freqs[t][i])
		}
	}
	// Keep the k best seen so far in order; almost every document
	// fails the comparison against the current worst and costs nothing.
	before := func(a, b rankedDoc) bool {
		return a.score > b.score || a.score == b.score && a.doc < b.doc
	}
	best := make([]rankedDoc, 0, k+1)
	for _, d := range tr.touched {
		r := rankedDoc{d, int(tr.score[d])}
		tr.score[d] = 0
		if len(best) == k && !before(r, best[k-1]) {
			continue
		}
		at := sort.Search(len(best), func(i int) bool { return before(r, best[i]) })
		best = append(best, rankedDoc{})
		copy(best[at+1:], best[at:])
		best[at] = r
		best = best[:min(len(best), k)]
	}
	return best
}

// fill computes the expected answer of every query in the set.
func (tr *truth) fill(qs []query) {
	var text []byte
	for i := range qs {
		q := &qs[i]
		if q.mode == "topk" {
			q.ranked = tr.topk(q.terms, q.k)
			q.wantN = len(q.ranked)
			continue
		}
		var docs []uint32
		if q.mode == "or" {
			docs = tr.or(q.terms)
		} else {
			docs = tr.and(q.terms)
		}
		text = appendDocs(text[:0], docs)
		q.wantN, q.wantH, q.wantCRC = len(docs), hashDocs(hashSeed, docs), crc32.Checksum(text, castagnoli)
	}
}
