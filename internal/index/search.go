package index

import (
	"context"
	"errors"

	"repro/internal/ops"
)

// Request is one query in the form every layer above the postings
// speaks: the HTTP front parses it once, a router scatters it verbatim
// (doc partitioning means shards differ in data, not in query), and an
// index evaluates it. Terms are already tokenized.
type Request struct {
	Mode  string // "and" | "or" | "topk"
	Terms []string
	K     int // topk only

	// Words says the caller takes a dense boolean answer as
	// Answer.Words. The HTTP front sets it for and/or; every other
	// caller gets Docs, as if it were unset.
	Words bool
}

// Answer is what a Searcher returns. Boolean modes fill Docs (ascending
// docids), or Words instead when the request set Words and the answer
// is dense — never both; topk fills Ranked (score desc, doc asc) and TopK, the
// evaluation's work counters summed over whatever evaluated it — one
// index, a live index's sealed segments, a router's shards. Only a
// Searcher that fans out fills the coverage fields: Partial marks that
// some shards failed, so Docs/Ranked are the exact answer over the
// shards that responded — a documented subset, never a wrong result.
type Answer struct {
	Docs   []uint32
	Words  *ops.Words
	Ranked []Result
	TopK   *ops.TopKStats

	Partial  bool
	Degraded []int // ids of the shards that failed this query
	Shards   int   // partition width; 0 when not sharded
}

// Searcher is the one query seam: *Index, *Live and shard.Router
// implement it and the HTTP front serves any of them. Search must
// honor ctx cancellation.
type Searcher interface {
	Search(ctx context.Context, req Request) (Answer, error)
}

// BadRequest is the error a Searcher returns for a request that can
// never succeed as asked — the caller's fault, not the index's. The
// HTTP front answers it with 400 and Msg as the error body; a router
// neither fails over nor degrades a shard on it.
type BadRequest struct{ Msg string }

func (e *BadRequest) Error() string { return e.Msg }

// ErrUnavailable marks a Search that failed because nothing was there
// to answer (every shard down); the HTTP front answers it with 503.
var ErrUnavailable = errors.New("unavailable")

// ErrBadMode is the BadRequest for a mode outside the vocabulary.
var ErrBadMode = &BadRequest{"mode must be and | or | topk"}

// evaluator is the query surface *Index and *Live share; search maps a
// Request onto it.
type evaluator interface {
	Conjunctive(terms ...string) ([]uint32, error)
	Disjunctive(terms ...string) ([]uint32, error)
	TopKWith(algo string, k int, stats *ops.TopKStats, terms ...string) ([]Result, error)
}

func search(ctx context.Context, e evaluator, req Request) (Answer, error) {
	if err := ctx.Err(); err != nil {
		return Answer{}, err
	}
	switch req.Mode {
	case "and":
		docs, err := e.Conjunctive(req.Terms...)
		return Answer{Docs: docs}, err
	case "or":
		docs, err := e.Disjunctive(req.Terms...)
		return Answer{Docs: docs}, err
	case "topk":
		stats := new(ops.TopKStats)
		ranked, err := e.TopKWith("", req.K, stats, req.Terms...)
		return Answer{Ranked: ranked, TopK: stats}, err
	}
	return Answer{}, ErrBadMode
}

// Search evaluates req against the index. A dense OR comes back as
// Words when req.Words is set.
func (idx *Index) Search(ctx context.Context, req Request) (Answer, error) {
	if req.Words && req.Mode == "or" {
		if err := ctx.Err(); err != nil {
			return Answer{}, err
		}
		docs, words, err := ops.UnionWords(idx.postings(req.Terms))
		return Answer{Docs: docs, Words: words}, err
	}
	return search(ctx, idx, req)
}

// Search evaluates req across every segment of the live index. Live
// answers are always Docs: req.Words is ignored.
func (l *Live) Search(ctx context.Context, req Request) (Answer, error) {
	return search(ctx, l, req)
}
