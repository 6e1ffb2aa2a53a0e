package index

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/ops"
)

// denseSweepDocs is the span of BenchmarkTopKDenseVsBMW's corpus.
const denseSweepDocs = 1 << 16

// denseSweepRatios are the Σ|L| / span ratios the sweep times: from
// 1/64, where the two scorers meet on equal lists, up to the number of
// lists, the most k equal lists over one span can hold.
var denseSweepRatios = []float64{1.0 / 64, 1.0 / 32, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 2, 3}

// denseSkewRatios are the densities of the skewed pair's common list:
// TestTopKBlockMaxSkipsBlocks's 7/40, then the sweep's ratios around
// the cut.
var denseSkewRatios = []float64{7.0 / 40, 1.0 / 16, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1}

// denseSweepTerm names list i of the k equal lists at ratio r.
func denseSweepTerm(k int, r float64, i int) string {
	return fmt.Sprintf("k%dr%gt%d", k, r, i)
}

// denseSweepCorpus writes the sweep's documents: for every list count k
// in {2, 3} and ratio r ≤ k, k terms that each occur in a document with
// probability r/k, at a frequency 1–10 skewed toward 1 (each step up
// has odds 1/3, the shape of C300's impacts); plus the skewed pair of
// TestTopKBlockMaxSkipsBlocks — "rare", in 1 of 2000 documents at
// frequency 4–7, beside a "common" list at frequency 1 for each of
// denseSkewRatios; and "rarec", in 1 of 2000 documents at C300's
// frequencies, which the skewed-c300 pairs put beside the first of the
// two equal lists.
func denseSweepCorpus() []string {
	rng := rand.New(rand.NewSource(38))
	docs := make([]string, denseSweepDocs)
	var sb strings.Builder
	word := func(w string, freq int) {
		for ; freq > 0; freq-- {
			sb.WriteString(w)
			sb.WriteByte(' ')
		}
	}
	for d := range docs {
		sb.Reset()
		for _, k := range []int{2, 3} {
			for _, r := range denseSweepRatios {
				for i := 0; r <= float64(k) && i < k; i++ {
					if rng.Float64() >= r/float64(k) {
						continue
					}
					word(denseSweepTerm(k, r, i), c300Freq(rng))
				}
			}
		}
		for _, r := range denseSkewRatios {
			if rng.Float64() < r {
				word(fmt.Sprintf("common%g", r), 1)
			}
		}
		if rng.Intn(2000) == 0 {
			word("rare", 4+rng.Intn(4))
		}
		if rng.Intn(2000) == 0 {
			word("rarec", c300Freq(rng))
		}
		word("filler", 1)
		docs[d] = sb.String()
	}
	return docs
}

// c300Freq draws a term frequency 1–10 skewed toward 1: each step up
// has odds 1/3, the shape of C300's impacts.
func c300Freq(rng *rand.Rand) int {
	freq := 1
	for freq < 10 && rng.Intn(3) == 0 {
		freq++
	}
	return freq
}

// BenchmarkTopKDenseVsBMW measures the cut behind ops.TopK's choice of
// scorer (ops denseTopKCut): the dense score array against
// Block-Max-WAND, forced through ops.TopKForced, over the cursors
// topkLists hands the served path for a BVIX3 v4 file opened through
// the mapped lazy path. Lists are SIMDBP128*-coded (lazy block
// cursors, which decode what they read on every query) or Roaring
// (decoded once before timing, as the served cache holds them). It
// sweeps Σ|L|/span from 1/64 to the list count for 2 and 3 equal lists
// over 2^16 documents, then times two skewed pairs across the ratios
// around the cut: "skewed", rare × flat common, where BMW skips most of
// common's blocks, and "skewed-c300", rare × common with C300-shaped
// impacts on both. k = 10, inside serve-topk's k ∈ [3, 17].
func BenchmarkTopKDenseVsBMW(b *testing.B) {
	docs := denseSweepCorpus()
	type query struct {
		name  string
		terms []string
	}
	var queries []query
	for _, k := range []int{2, 3} {
		for _, r := range denseSweepRatios {
			if r > float64(k) {
				continue
			}
			q := query{name: fmt.Sprintf("k=%d/ratio=%g", k, r)}
			for i := 0; i < k; i++ {
				q.terms = append(q.terms, denseSweepTerm(k, r, i))
			}
			queries = append(queries, q)
		}
	}
	for _, r := range denseSkewRatios {
		queries = append(queries, query{name: fmt.Sprintf("skewed/ratio=%.3g", r), terms: []string{"rare", fmt.Sprintf("common%g", r)}})
	}
	for _, r := range denseSweepRatios[2:7] {
		queries = append(queries, query{name: fmt.Sprintf("skewed-c300/ratio=%g", r), terms: []string{"rarec", denseSweepTerm(2, r, 0)}})
	}
	for _, codec := range []string{"SIMDBP128*", "Roaring"} {
		bld := NewBuilder(mustCodec(b, codec))
		for _, d := range docs {
			bld.AddDocument(d)
		}
		built, err := bld.Build()
		if err != nil {
			b.Fatal(err)
		}
		idx := openLazy4(b, built)
		for _, q := range queries {
			lists := idx.topkLists(q.terms)
			for _, scorer := range []string{"dense", "bmw"} {
				b.Run(fmt.Sprintf("%s/%s/%s", codec, q.name, scorer), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						sinkResults = ops.TopKForced(scorer == "dense", 10, lists, nil)
					}
				})
			}
		}
		idx.Close()
	}
}

var sinkResults []Result
