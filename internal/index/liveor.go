package index

import (
	"sync"

	"repro/internal/kernels"
	"repro/internal/ops"
)

// The live OR. Every segment ORs its answer into one word array over
// global docids (bit g stands for docid g), sized from the nextDoc the
// query pins with its view: the in-memory segments set bits from their
// posting lists under the pin lock; each sealed segment unions its own
// postings into words over its local ids (ops.VisitUnionWords) and ORs
// them in one docid run at a time, a shifted word copy, or sets bits
// through the same runs when its answer is a sparse list.
//
// Tombstones mask each segment's contribution before it is ORed in: a
// dense local answer has its masked bits cleared (the words are a
// pooled scratch the union hands over for that), a list skips them as
// it sets bits. A tombstone masks only the segments whose epoch is at
// most its bound, so clearing it from the global array once every
// segment is in would also erase a copy Reinsert put in a newer
// segment; masking per segment needs no order among the segments and
// no second pass.
//
// The array is the answer: trimmed to its span when the caller takes
// words and ops.Dense holds, drained into docids otherwise, in which
// case it goes back to the pool clear.

// orWordsMaxRetain caps the array a pooled box keeps: 512 KiB, a
// 2^22-docid live index (ops.accMaxRetainWords does the same for the
// union's accumulator).
const orWordsMaxRetain = 1 << 16

// orWordsPool holds global word arrays, zero across their capacity.
var orWordsPool = sync.Pool{New: func() any { return new([]uint64) }}

// or is the one live OR: Search's with asWords set, Disjunctive's
// without.
func (l *Live) or(terms []string, asWords bool) ([]uint32, *ops.Words, error) {
	box := orWordsPool.Get().(*[]uint64)
	var g []uint64
	err := l.scatter(func(next uint32) {
		n := int((uint64(next) + 63) >> 6)
		if cap(*box) < n {
			*box = make([]uint64, n)
		}
		g = (*box)[:n]
	}, func(m *MemSegment, tombs tombSet, epoch int) {
		for _, t := range terms {
			list, _ := m.Postings(t)
			tombs.setUnmasked(g, list, epoch)
		}
	}, func(seg *sealedSeg, tombs tombSet) error {
		return ops.VisitUnionWords(seg.snap.Index().postings(terms), func(docs []uint32, w *ops.Words) {
			if w == nil {
				seg.ranges.setUnmasked(g, docs, tombs, seg.epoch)
				return
			}
			tombs.clearIn(*w, seg.ranges, seg.epoch)
			seg.ranges.orWords(g, *w)
		})
	})
	if err != nil {
		return nil, nil, err // the array is dropped, not pooled unclear
	}
	total := kernels.PopcountWords(g)
	lo, hi, _ := ops.Words{W: g}.Bounds()
	if asWords && ops.Dense(total, lo, hi) {
		*box = nil
		orWordsPool.Put(box)
		base := lo &^ 0xffff
		return nil, &ops.Words{Base: base, W: g[base>>6 : hi>>6+1 : hi>>6+1]}, nil
	}
	var docs []uint32
	if total > 0 {
		docs = make([]uint32, total)
		kernels.DrainWords(docs, g, 0)
	}
	if cap(*box) > orWordsMaxRetain {
		*box = nil
	}
	orWordsPool.Put(box)
	return docs, nil, nil
}

// setUnmasked sets the bit of every docid of ids, ascending global ids
// of a segment of the given epoch, that no tombstone masks.
func (ts tombSet) setUnmasked(g []uint64, ids []uint32, epoch int) {
	j := 0
	for _, d := range ids {
		if len(ts) == 0 || !ts.maskedFrom(&j, d, epoch) {
			g[d>>6] |= 1 << (d & 63)
		}
	}
}

// clearIn clears from w, a sealed segment's answer over its local ids,
// the bit of every document a tombstone masks in that segment.
func (ts tombSet) clearIn(w ops.Words, r idRanges, epoch int) {
	run := 0
	for _, t := range ts {
		for run < len(r.starts) && t.doc >= r.starts[run] && t.doc-r.starts[run] >= r.lens[run] {
			run++
		}
		if run == len(r.starts) {
			return
		}
		if t.doc < r.starts[run] || t.bound < epoch {
			continue
		}
		local := r.cum[run] + (t.doc - r.starts[run])
		if b := uint64(local) - uint64(w.Base); local >= w.Base && b < uint64(len(w.W))<<6 {
			w.W[b>>6] &^= 1 << (b & 63)
		}
	}
}

// setUnmasked sets the global bit of every local id of locals, an
// ascending answer of a segment of the given epoch, that no tombstone
// masks.
func (r idRanges) setUnmasked(g []uint64, locals []uint32, tombs tombSet, epoch int) {
	run, j := 0, 0
	for _, l := range locals {
		for run+1 < len(r.cum) && r.cum[run+1] <= l {
			run++
		}
		d := r.starts[run] + (l - r.cum[run])
		if len(tombs) == 0 || !tombs.maskedFrom(&j, d, epoch) {
			g[d>>6] |= 1 << (d & 63)
		}
	}
}

// orWords ORs w, an answer over the segment's local ids, into g, one
// docid run at a time.
func (r idRanges) orWords(g []uint64, w ops.Words) {
	for i, start := range r.starts {
		w.OrRun(g, start, r.cum[i], r.lens[i])
	}
}
