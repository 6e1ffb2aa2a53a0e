package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// The benchmark owns every generator it uses. They are deliberate
// copies of the shapes in internal/load (GenCorpus, zipf over
// document-frequency rank) and internal/gen (uniform, zipf, markov
// lists), not calls into those packages, so a later change to either
// cannot move the workload under a comparison. bench_test.go pins the
// SHA-256 of what they produce for seeds 1 and 2.

// corpusShape names a document collection size.
type corpusShape struct {
	name  string
	docs  int
	vocab int
}

var (
	// C300 backs serve-boolean, serve-topk and route-mixed.
	c300 = corpusShape{"C300", 300_000, 5_000}
	// C100 is the static base of live-mixed.
	c100 = corpusShape{"C100", 100_000, 2_000}
)

// corpus is a generated collection: each document is a sequence of
// vocabulary ranks, 4 to 15 words drawn zipf(1.2). Term i is spelled
// t%04d.
type corpus struct {
	shape corpusShape
	docs  [][]uint16
}

func termName(i int) string { return fmt.Sprintf("t%04d", i) }

func genCorpus(seed int64, shape corpusShape) *corpus {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(shape.vocab-1))
	docs := make([][]uint16, shape.docs)
	for d := range docs {
		words := make([]uint16, 4+rng.Intn(12))
		for w := range words {
			words[w] = uint16(zipf.Uint64())
		}
		docs[d] = words
	}
	return &corpus{shape: shape, docs: docs}
}

// appendDoc renders document d as the text line the programs ingest.
func (c *corpus) appendDoc(dst []byte, d int) []byte {
	for w, t := range c.docs[d] {
		if w > 0 {
			dst = append(dst, ' ')
		}
		dst = append(dst, 't')
		dst = append(dst, byte('0'+t/1000%10), byte('0'+t/100%10), byte('0'+t/10%10), byte('0'+t%10))
	}
	return dst
}

// text renders the whole collection, one document per line.
func (c *corpus) text() []byte {
	var b []byte
	for d := range c.docs {
		b = c.appendDoc(b, d)
		b = append(b, '\n')
	}
	return b
}

// query is one replayable request. A set is replayed in the order it
// was generated, client c of n taking positions c, c+n, ... Its expected answer is kept as a
// count and an order-sensitive hash of the docid sequence, because the
// answers themselves (hundreds of thousands of docids each) would not
// fit in memory for a whole set.
type query struct {
	mode  string // "and" | "or" | "topk"; a point lookup is a 1-term "and"
	class int    // classPoint .. classTopK, for per-class latency
	terms []int  // vocabulary ranks
	names []string
	k     int // topk only

	url     string // /search?... path and query string
	wantN   int
	wantH   uint64      // hashDocs of the answer
	wantCRC uint32      // CRC-32C of the answer as JSON renders it
	ranked  []rankedDoc // topk only
}

const (
	classPoint = iota
	classAnd
	classOr
	classTopK
	numClasses
)

var classNames = [numClasses]string{"point", "and", "or", "topk"}

// mix weights the four query classes of a set.
type mix [numClasses]int

var (
	mixBoolean = mix{4, 3, 2, 0}
	mixTopK    = mix{0, 0, 0, 1}
	mixMixed   = mix{4, 3, 2, 1}
)

const querySetSize = 1024

// genQueries makes n distinct queries. Terms are ranked by document
// frequency (the benchmark's own count) and sampled zipf(1.3) over
// that rank, so hot terms dominate the way they do in query logs.
// AND and OR take 2 to 4 terms, top-k 1 to 3 with k in [3,17]; top-k
// queries leave algo unset, which is what users send.
func genQueries(seed int64, tr *truth, n int, m mix) []query {
	byDF := make([]int, 0, len(tr.docs))
	for t := range tr.docs {
		if len(tr.docs[t]) > 0 {
			byDF = append(byDF, t)
		}
	}
	sort.SliceStable(byDF, func(i, j int) bool { return len(tr.docs[byDF[i]]) > len(tr.docs[byDF[j]]) })

	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(byDF)-1))
	pick := func(k int) []int {
		terms := make([]int, 0, k)
		for len(terms) < k {
			t := byDF[zipf.Uint64()]
			dup := false
			for _, u := range terms {
				dup = dup || u == t
			}
			if !dup {
				terms = append(terms, t)
			}
		}
		return terms
	}
	total := 0
	for _, w := range m {
		total += w
	}
	seen := make(map[string]bool, n)
	qs := make([]query, 0, n)
	var made, credit [numClasses]int
	for len(qs) < n {
		// Classes take turns in the proportions of the mix, spread evenly
		// (smooth weighted round-robin: every class earns its weight each
		// turn and the richest one pays the total), and term counts rotate
		// within a class. So every seed, and every stretch of a replay a
		// few turns long, holds the same number of each shape and only the
		// terms differ; a query that repeats an earlier one has its terms
		// redrawn. Left to chance, the share of unions alone moved
		// throughput by a tenth between seeds.
		class := -1
		for c, w := range m {
			credit[c] += w
			if w > 0 && (class < 0 || credit[c] > credit[class]) {
				class = c
			}
		}
		credit[class] -= total
		width := made[class] % 3
		made[class]++
		for {
			var q query
			switch class {
			case classPoint:
				q = query{mode: "and", terms: pick(1)}
			case classAnd:
				q = query{mode: "and", terms: pick(2 + width)}
			case classOr:
				q = query{mode: "or", terms: pick(2 + width)}
			default:
				q = query{mode: "topk", terms: pick(1 + width), k: 3 + rng.Intn(15)}
			}
			q.class = class
			for _, t := range q.terms {
				q.names = append(q.names, termName(t))
			}
			q.url = q.path()
			if !seen[q.url] {
				seen[q.url] = true
				qs = append(qs, q)
				break
			}
		}
	}
	return qs
}

func (q *query) path() string {
	p := "/search?q=" + strings.Join(q.names, "+") + "&mode=" + q.mode
	if q.mode == "topk" {
		p += "&k=" + strconv.Itoa(q.k)
	}
	return p
}

// workloadHash is the SHA-256 of a corpus and a query set: the value
// bench_test.go pins.
func workloadHash(c *corpus, qs []query) string {
	h := sha256.New()
	h.Write(c.text())
	for i := range qs {
		h.Write([]byte(qs[i].url))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Integer-list generators for codec-ops: the three distributions of
// the paper's §5 over [0, domain), each written as an O(n) walk over
// gaps so a 2^24 domain costs nothing. Sizes are expected, not exact.

// genUniform includes each value independently with probability
// n/domain, by drawing geometric gaps.
func genUniform(rng *rand.Rand, n int, domain uint32) []uint32 {
	p := float64(n) / float64(domain)
	out := make([]uint32, 0, n+n/8)
	lg := math.Log1p(-p)
	for v := int64(-1); ; {
		v += 1 + int64(math.Log(1-rng.Float64())/lg)
		if v >= int64(domain) {
			return out
		}
		out = append(out, uint32(v))
	}
}

// genZipf includes value k-1 (k the 1-based rank) with probability
// min(1, c/k), c chosen so the expected size is n: the skew-1 zipf the
// repo's own experiments use. Values with probability 1 form a dense
// head; past it the inclusion process is walked as a Poisson process
// of the same rate c/x, which is the Bernoulli process up to terms of
// order p².
func genZipf(rng *rand.Rand, n int, domain uint32) []uint32 {
	mass := func(c float64) float64 {
		full := math.Min(math.Floor(c), float64(domain))
		return full + c*math.Log(float64(domain)/math.Max(full, 1))
	}
	lo, hi := 0.0, float64(domain)
	for i := 0; i < 80; i++ {
		if mid := (lo + hi) / 2; mass(mid) < float64(n) {
			lo = mid
		} else {
			hi = mid
		}
	}
	c := (lo + hi) / 2
	head := uint32(math.Min(math.Floor(c), float64(domain)))
	out := make([]uint32, 0, n+n/8)
	for v := uint32(0); v < head; v++ {
		out = append(out, v)
	}
	// Λ(x, x') = c·ln(x'/x); the next arrival solves Λ = Exp(1).
	for x := math.Max(float64(head), 1); ; {
		x = math.Ceil(x * math.Exp(-math.Log(1-rng.Float64())/c))
		if x > float64(domain) {
			return out
		}
		if k := uint32(x) - 1; len(out) == 0 || k > out[len(out)-1] {
			out = append(out, k)
		}
	}
}

// genMarkov walks a two-state chain with 1-runs of mean length f and
// stationary density n/domain, drawing run lengths instead of bits.
func genMarkov(rng *rand.Rand, n int, domain uint32, f float64) []uint32 {
	density := float64(n) / float64(domain)
	q := 1 / f
	p := density / ((1 - density) * f)
	geo := func(prob float64) int64 { return 1 + int64(math.Log(1-rng.Float64())/math.Log1p(-prob)) }
	out := make([]uint32, 0, n+n/8)
	v := int64(0)
	if rng.Float64() >= density {
		v += geo(p)
	}
	for v < int64(domain) {
		for run := geo(q); run > 0 && v < int64(domain); run, v = run-1, v+1 {
			out = append(out, uint32(v))
		}
		v += geo(p)
	}
	return out
}

// listHash is the SHA-256 of integer lists, for the pin test.
func listHash(lists ...[]uint32) string {
	h := sha256.New()
	var b [4]byte
	for _, l := range lists {
		for _, v := range l {
			binary.LittleEndian.PutUint32(b[:], v)
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
