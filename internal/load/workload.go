package load

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/index"
)

// Mix weights the traffic classes of a workload. Zero-value fields
// drop that class from the mix.
type Mix struct {
	Point int // single-term lookups
	And   int // multi-term conjunctions
	Or    int // multi-term disjunctions
	TopK  int // ranked top-k
}

// DefaultMix is the production-shaped blend: lookup-heavy with a
// ranked tail, mirroring the paper's point/boolean/top-k workload
// split (§A.1).
func DefaultMix() Mix { return Mix{Point: 4, And: 3, Or: 2, TopK: 1} }

func (m Mix) total() int { return m.Point + m.And + m.Or + m.TopK }

// Query is one replayable request with its precomputed ground truth.
type Query struct {
	Mode  string   // "and" | "or" | "topk"
	Terms []string // query terms (zipfian-sampled)
	K     int      // topk only

	// Expected is the exact healthy-server answer: the sorted doc list
	// for and/or, the ranked doc sequence (score order) for topk.
	Expected []uint32
	// Candidates, for topk, is the disjunctive match set — top-k is
	// any-term scoring, so this is the superset any degraded-mode
	// ranking must stay inside.
	Candidates []uint32
}

// Workload is a precomputed query set with ground truth, replayed
// round-robin-randomly by the runner.
type Workload struct {
	Queries []Query
}

// BuildWorkload samples n queries from the vocabulary with zipfian
// term popularity — terms ranked by document frequency, rank sampled
// by a Zipf law, so hot terms dominate like production query logs do —
// and computes each query's expected result against idx, which must be
// the exact index the target server serves.
func BuildWorkload(idx *index.Index, vocab []string, n int, seed int64, mix Mix) (*Workload, error) {
	if mix.total() <= 0 {
		mix = DefaultMix()
	}
	if len(vocab) < 2 {
		return nil, fmt.Errorf("load: vocabulary has %d terms, need >= 2", len(vocab))
	}
	// Rank terms by document frequency, most frequent first.
	ranked := append([]string(nil), vocab...)
	sort.SliceStable(ranked, func(i, j int) bool {
		return idx.Postings(ranked[i]).Len() > idx.Postings(ranked[j]).Len()
	})
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(ranked)-1))

	pick := func(k int) []string {
		terms := make([]string, 0, k)
		seen := map[string]bool{}
		for len(terms) < k {
			t := ranked[zipf.Uint64()]
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
		return terms
	}

	w := &Workload{Queries: make([]Query, 0, n)}
	for i := 0; i < n; i++ {
		var q Query
		switch r := rng.Intn(mix.total()); {
		case r < mix.Point:
			q = Query{Mode: "and", Terms: pick(1)}
		case r < mix.Point+mix.And:
			q = Query{Mode: "and", Terms: pick(2 + rng.Intn(3))}
		case r < mix.Point+mix.And+mix.Or:
			q = Query{Mode: "or", Terms: pick(2 + rng.Intn(3))}
		default:
			q = Query{Mode: "topk", Terms: pick(1 + rng.Intn(3)), K: 3 + rng.Intn(15)}
		}
		var err error
		switch q.Mode {
		case "and":
			q.Expected, err = idx.Conjunctive(q.Terms...)
		case "or":
			q.Expected, err = idx.Disjunctive(q.Terms...)
		case "topk":
			q.Candidates, err = idx.Disjunctive(q.Terms...)
			if err == nil {
				var ranked []index.Result
				ranked, err = idx.TopK(q.K, q.Terms...)
				q.Expected = make([]uint32, len(ranked))
				for j, r := range ranked {
					q.Expected[j] = r.Doc
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("load: computing expected result for %v %v: %w", q.Mode, q.Terms, err)
		}
		w.Queries = append(w.Queries, q)
	}
	return w, nil
}

// equalU32 reports exact (order-sensitive) equality. The server's
// and/or results are sorted and its topk ranking is deterministic, so
// a healthy server must match exactly.
func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// subsetU32 reports whether every element of sub appears in super.
// Both are treated as sets; sub need not be sorted (topk rankings are
// score-ordered).
func subsetU32(sub, super []uint32) bool {
	if len(sub) > len(super) {
		return false
	}
	s := append([]uint32(nil), sub...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	j := 0
	for _, v := range s {
		for j < len(super) && super[j] < v {
			j++
		}
		if j >= len(super) || super[j] != v {
			return false
		}
	}
	return true
}

// partialOK reports whether got is an acceptable degraded-mode partial
// answer for q: a subset of the healthy result (and/or — quarantined
// terms can only shrink matches) or, for topk, a ranking drawn from
// the healthy candidate set with no more than K entries (quarantined
// frequency payloads may reorder scores but can never invent docs).
func (q *Query) partialOK(got []uint32) bool {
	switch q.Mode {
	case "topk":
		return len(got) <= q.K && subsetU32(got, q.Candidates)
	default:
		return subsetU32(got, q.Expected)
	}
}
