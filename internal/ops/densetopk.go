package ops

import (
	"math"
	"sync"

	"repro/internal/kernels"
)

// The dense top-k scorer. Block-Max-WAND prunes when a block's upper
// bound falls under the heap threshold; over hot terms with frequency
// impacts the 128-posting block maxima sum above any threshold a short
// answer reaches, so it skips almost nothing and pays a pivot search,
// cursor seeks and a score per candidate anyway. When the operands are
// dense in the docid span they cover, the union-side lesson holds
// here too (dense.go): every list adds its impacts, one decoded block
// at a time, into one array of 16-bit scores, four to a word, and one
// pass in docid order offers the documents that beat the threshold.

// denseTopKCut is c in the choice rule Σ|L| ≥ c·(hi−lo+1). It is
// measured, not tuned per call: BenchmarkTopKDenseVsBMW (internal/index)
// sweeps the ratio from 1/64 to 3 for 2 and 3 equal lists of real
// BVIX3 v4 terms, and for a rare term beside a common one (DESIGN §9
// "The dense scorer").
const denseTopKCut = 1.0 / 4

// denseTopKMinPostings is the fewest postings, summed over the lists,
// that the dense scorer takes. Below one block's worth both scorers
// answer in about a microsecond, so the scorer's fixed costs (the pool,
// a first-block read per list for lo, a pass over the whole span) buy
// nothing, and BMW keeps the small hand-built inputs its own tests
// exercise it with.
const denseTopKMinPostings = kernels.BlockLen

// maxDenseScore bounds Σ TermMax for the dense scorer: each score lane
// is 16 bits and its top bit must stay clear for the SWAR threshold
// test, so every lane sum fits in 15 bits and never carries into its
// neighbour.
const maxDenseScore = 0x7fff

// laneOnes has a 1 in the low bit of each of a word's four 16-bit
// score lanes, laneHigh the top bit of each.
const (
	laneOnes = 0x0001_0001_0001_0001
	laneHigh = 0x8000 * laneOnes
)

// scoreAccumulator is the dense scorer's pooled state. scores is zero
// across its whole capacity between uses (drainScores clears what it
// reads), so a warm query neither allocates nor clears its scores.
type scoreAccumulator struct {
	scores []uint16
	block  [kernels.BlockLen]uint32 // one decoded list block
}

// scoreMaxRetain caps the score lanes a pooled accumulator keeps, so
// one huge query cannot pin them: 2 MiB, a span of 2^20 documents —
// above every served index here (C300 spans 300 000).
const scoreMaxRetain = 1 << 20

var scorePool = sync.Pool{New: func() any { return new(scoreAccumulator) }}

func getScoreAccumulator() *scoreAccumulator { return scorePool.Get().(*scoreAccumulator) }

func putScoreAccumulator(a *scoreAccumulator) {
	if cap(a.scores) > scoreMaxRetain {
		a.scores = nil
	}
	scorePool.Put(a)
}

// scoreDense scores lists into h with the dense scorer when denseTopK
// admits them under cut c, and reports whether it did, with the
// documents it scored and the blocks it read.
func scoreDense(lists []ImpactList, c float64, h *topkHeap) (scored, blocks int, ok bool) {
	a := getScoreAccumulator()
	defer putScoreAccumulator(a)
	lo, hi, ok := a.denseTopK(lists, c)
	if ok {
		scored, blocks = a.score(lists, lo, hi, h)
	}
	return scored, blocks, ok
}

// denseTopK reports whether the non-empty lists (at least two) take
// the dense scorer under cut c, and the docid range [lo, hi] they
// cover: Σ TermMax must fit a score lane, and the lists must hold at
// least denseTopKMinPostings postings and at least c per docid of the
// range. lo is read from each list's first block.
func (a *scoreAccumulator) denseTopK(lists []ImpactList, c float64) (lo, hi uint32, ok bool) {
	var total int
	var sumMax uint64
	for _, il := range lists {
		last, _ := il.Blocks()
		total, sumMax = total+il.Len(), sumMax+uint64(il.TermMax())
		hi = max(hi, last[len(last)-1])
	}
	if sumMax > maxDenseScore || total < denseTopKMinPostings {
		return 0, 0, false
	}
	lo = math.MaxUint32
	for _, il := range lists {
		docs, _ := il.Block(0, a.block[:])
		lo = min(lo, docs[0])
	}
	return lo, hi, float64(total) >= c*(float64(hi-lo)+1)
}

// score adds every list's impacts into the score lanes for [lo, hi],
// one block at a time, then drains them into h. It returns the number
// of documents scored and of blocks read. Each posting adds into its
// own 16-bit lane: adding into the packed 64-bit word instead makes
// neighbouring docids of one list wait on each other's stores, which
// was 2.7 times slower for three lists each holding 60 % of 300 000
// docids.
func (a *scoreAccumulator) score(lists []ImpactList, lo, hi uint32, h *topkHeap) (scored, blocks int) {
	n := 4 * (int((hi-lo)>>2) + 1) // whole words of four lanes
	if cap(a.scores) < n {
		a.scores = make([]uint16, n)
	}
	scores := a.scores[:n]
	for _, il := range lists {
		last, _ := il.Blocks()
		for b := range last {
			docs, imps := il.Block(b, a.block[:])
			imps = imps[:len(docs)]
			for i, d := range docs {
				// Only a block frame that disagrees with its postings,
				// in a corrupt index, puts a docid outside [lo, hi]; it
				// is dropped, not a panic.
				if v := uint64(d - lo); v < uint64(len(scores)) {
					scores[v] += uint16(imps[i])
				}
			}
		}
		blocks += len(last)
	}
	return drainScores(scores, lo, h), blocks
}

// drainScores offers h every document whose score beats its threshold,
// in increasing docid order, clears scores, and returns the number of
// nonzero scores. scores holds whole words of four lanes, read as one
// little-endian uint64: lane j of word i is the score of docid
// base+4i+j. A lane x beats threshold t exactly when x + (0x7fff − t)
// sets the lane's top bit: both terms are at most 0x7fff, so the sum
// never carries into the next lane. t is never below 0, so the test
// also skips zero lanes, and zero words, without a branch of their
// own: on a sparse span that branch mispredicts once every few words.
func drainScores(scores []uint16, base uint32, h *topkHeap) (scored int) {
	thr := max(h.threshold(), 0) // a zero lane is no document
	beats := (maxDenseScore - uint64(thr)) * laneOnes
	var nonzero uint64 // per lane, the nonzero lanes of the words read since the last fold
	for i := 0; i < len(scores); i += 4 {
		q := scores[i : i+4 : i+4]
		w := uint64(q[0]) | uint64(q[1])<<16 | uint64(q[2])<<32 | uint64(q[3])<<48
		q[0], q[1], q[2], q[3] = 0, 0, 0, 0
		nonzero += (w + maxDenseScore*laneOnes) & laneHigh >> 15
		if i&(4*laneFold-1) == 4*laneFold-4 {
			scored, nonzero = scored+foldLanes(nonzero), 0
		}
		if (w+beats)&laneHigh == 0 {
			continue
		}
		for j := 0; j < 4; j++ {
			if s := int64(w>>(16*j)) & 0xffff; s > thr {
				h.offer(ScoredDoc{Doc: base + uint32(i+j), Score: int(s)})
				thr = max(h.threshold(), 0)
			}
		}
		beats = (maxDenseScore - uint64(thr)) * laneOnes
	}
	return scored + foldLanes(nonzero)
}

// laneFold is how many words drainScores counts into its lane counters
// before it folds them: each lane then holds at most 2^13 and their sum
// fits one lane. Counting in lanes takes a quarter off the drain's time
// against bits.OnesCount64 per word, which checks for POPCNT at run
// time on the default amd64 target.
const laneFold = 1 << 13

// foldLanes sums x's four 16-bit lanes, whose total must fit 16 bits.
func foldLanes(x uint64) int { return int(x * laneOnes >> 48) }
