package index

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
)

// Sentinel lifecycle states, set by the writer that owns the document.
const (
	sentAcked    = 1 // Add returned
	sentDeleting = 2 // Delete issued, not yet returned
	sentDeleted  = 3 // Delete returned
)

// sentinel is one document a writer added during the load: its unique
// term makes a point query for it exact.
type sentinel struct {
	id    uint32
	term  string
	alpha bool // the text also carries the static term "alpha"
	state atomic.Int32
}

// sentinelLog is the writers' record of acked sentinels.
type sentinelLog struct {
	mu   sync.Mutex
	docs []*sentinel
}

func (s *sentinelLog) add(e *sentinel) {
	s.mu.Lock()
	s.docs = append(s.docs, e)
	s.mu.Unlock()
}

// states returns the sentinels acked so far and the state of each, read
// now: a reader calls it before issuing a query, so every state it
// reports was reached before the query started.
func (s *sentinelLog) states() ([]*sentinel, []int32) {
	s.mu.Lock()
	docs := s.docs[:len(s.docs):len(s.docs)]
	s.mu.Unlock()
	st := make([]int32, len(docs))
	for i, e := range docs {
		st[i] = e.state.Load()
	}
	return docs, st
}

// checkAckedRead checks one answer (ascending docids) against the acks
// around it. For every sentinel the query matches: one acked before the
// read and not yet being deleted after it must be in the answer, and one
// whose delete was acked before the read must not. A sentinel the query
// does not match must never appear, and neither may a duplicate. Every
// docid in static must appear: static documents are never deleted.
func checkAckedRead(got []uint32, docs []*sentinel, before []int32, match func(*sentinel) bool, static []uint32) error {
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			return fmt.Errorf("answer not strictly ascending at %d: %d then %d", i, got[i-1], got[i])
		}
	}
	has := func(doc uint32) bool {
		i := sort.Search(len(got), func(i int) bool { return got[i] >= doc })
		return i < len(got) && got[i] == doc
	}
	for i, e := range docs {
		in := has(e.id)
		switch {
		case !match(e):
			if in {
				return fmt.Errorf("sentinel %d (%s) answered but the query does not match it", e.id, e.term)
			}
		case before[i] == sentDeleted:
			if in {
				return fmt.Errorf("sentinel %d (%s) answered after its delete was acked", e.id, e.term)
			}
		case before[i] == sentAcked && e.state.Load() == sentAcked:
			if !in {
				return fmt.Errorf("sentinel %d (%s) missing though acked before the read", e.id, e.term)
			}
		}
	}
	for _, d := range static {
		if !has(d) {
			return fmt.Errorf("static doc %d missing", d)
		}
	}
	return nil
}

// rankedDocs checks a ranked answer's order (score descending, docid
// ascending on ties, so no docid twice) and returns its docids ascending.
func rankedDocs(rs []Result) ([]uint32, error) {
	docs := make([]uint32, len(rs))
	for i, r := range rs {
		if i > 0 {
			p := rs[i-1]
			if r.Score > p.Score || (r.Score == p.Score && r.Doc <= p.Doc) {
				return nil, fmt.Errorf("ranked answer out of order at %d: %+v then %+v", i, p, r)
			}
		}
		docs[i] = r.Doc
	}
	sort.Slice(docs, func(i, j int) bool { return docs[i] < docs[j] })
	for i := 1; i < len(docs); i++ {
		if docs[i] == docs[i-1] {
			return nil, fmt.Errorf("ranked answer holds docid %d twice", docs[i])
		}
	}
	return docs, nil
}

// failingPosting is a posting whose native intersection fails: it makes
// a sealed segment's evaluation return an error.
type failingPosting struct{}

func (failingPosting) Len() int                               { return 1 }
func (failingPosting) SizeBytes() int                         { return 4 }
func (failingPosting) Decompress() []uint32                   { return []uint32{0} }
func (failingPosting) DecompressAppend(dst []uint32) []uint32 { return append(dst, 0) }
func (failingPosting) IntersectWith(core.Posting) ([]uint32, error) {
	return nil, errors.New("failing posting")
}

// TestLiveConcurrentReadsSeeAckedState runs two writers (adds and
// deletes of sentinel documents) and two readers (point, AND, OR and
// top-k queries over sentinels and static terms) against one live
// index while a loop seals and compacts it. Every read must contain
// each document acked before it started, and no document whose delete
// was acked before it started, once and in order. Afterwards no query
// may still hold a segment: every current snapshot is back to its
// owner's one reference and every retired one is closed — including
// after a query whose sealed-segment evaluation fails.
func TestLiveConcurrentReadsSeeAckedState(t *testing.T) {
	const (
		seed         = 43
		staticDocs   = 1200
		writers      = 2
		readers      = 2
		opsPerWriter = 250
		pointTerms   = 8
	)
	l, err := OpenLive(t.TempDir(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	// Every snapshot a segment ever had; only the setup and the
	// seal/compact loop create segments, and each notes them at once.
	seen := map[*Snapshot]bool{}
	observe := func() {
		l.mu.RLock()
		for _, seg := range l.sealed {
			seen[seg.snap] = true
		}
		l.mu.RUnlock()
	}

	// Static corpus over two sealed segments, never deleted.
	staticTerms := []string{"alpha", "beta", "gamma"}
	static := map[string][]uint32{}
	var staticAnd []uint32 // alpha AND beta
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < staticDocs; i++ {
		var words []string
		has := map[string]bool{}
		for len(words) == 0 {
			for _, w := range staticTerms {
				if rng.Intn(2) == 0 {
					words = append(words, w)
					has[w] = true
				}
			}
		}
		id, err := l.Add(strings.Join(words, " "))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			static[w] = append(static[w], id)
		}
		if has["alpha"] && has["beta"] {
			staticAnd = append(staticAnd, id)
		}
		if i == staticDocs/2 {
			if err := l.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	observe()

	var log sentinelLog
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}

	var wg, load sync.WaitGroup
	for w := 0; w < writers; w++ {
		load.Add(1)
		go func(w int) {
			defer load.Done()
			rng := rand.New(rand.NewSource(seed + 1 + int64(w)))
			var mine []*sentinel
			for n := 0; n < opsPerWriter; n++ {
				if len(mine) > 0 && rng.Intn(4) == 0 {
					i := rng.Intn(len(mine))
					e := mine[i]
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					e.state.Store(sentDeleting)
					if err := l.Delete(e.id); err != nil {
						t.Errorf("writer %d: delete %d: %v", w, e.id, err)
						return
					}
					e.state.Store(sentDeleted)
					continue
				}
				e := &sentinel{term: fmt.Sprintf("u%dx%d", w, n), alpha: rng.Intn(2) == 0}
				text := "sentinel " + e.term
				if e.alpha {
					text += " alpha"
				}
				id, err := l.Add(text)
				if err != nil {
					t.Errorf("writer %d: add: %v", w, err)
					return
				}
				e.id = id
				e.state.Store(sentAcked)
				log.add(e)
				mine = append(mine, e)
			}
		}(w)
	}

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + 100 + int64(r)))
			all := func(*sentinel) bool { return true }
			none := func(*sentinel) bool { return false }
			for reads := 0; !stopped() || reads == 0; reads++ {
				docs, before := log.states()
				// Point queries name a few sentinels by their unique terms:
				// each term is one lookup in every segment.
				picked := map[*sentinel]bool{}
				var picks []string
				for i := 0; i < pointTerms && len(docs) > 0; i++ {
					e := docs[rng.Intn(len(docs))]
					if !picked[e] {
						picked[e] = true
						picks = append(picks, e.term)
					}
				}
				onlyPicked := func(e *sentinel) bool { return picked[e] }
				var (
					desc   string
					got    []uint32
					ranked []Result
					err    error
					match  = none
					want   []uint32
				)
				q := rng.Intn(6)
				switch {
				case q == 0 && len(picks) > 0:
					desc, match = fmt.Sprint("point OR ", picks), onlyPicked
					got, err = l.Disjunctive(picks...)
				case q == 1:
					desc, match = "sentinel AND alpha", func(e *sentinel) bool { return e.alpha }
					got, err = l.Conjunctive("sentinel", "alpha")
				case q == 2:
					desc, want = "alpha AND beta", staticAnd
					got, err = l.Conjunctive("alpha", "beta")
				case q == 3:
					desc, match, want = "sentinel OR gamma", all, static["gamma"]
					got, err = l.Disjunctive("sentinel", "gamma")
				case q == 4 && len(picks) > 0:
					desc, match = fmt.Sprint("point top-k ", picks), onlyPicked
					ranked, err = l.TopK(len(picks), picks...)
				case q == 5:
					desc, match = "top-k sentinel", all
					ranked, err = l.TopK(writers*opsPerWriter, "sentinel")
				default:
					continue
				}
				if err == nil && (q == 4 || q == 5) {
					got, err = rankedDocs(ranked)
				}
				if err == nil {
					err = checkAckedRead(got, docs, before, match, want)
				}
				if err != nil {
					t.Errorf("reader %d, read %d, %s: %v", r, reads, desc, err)
					return
				}
			}
		}(r)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stopped() {
			if err := l.Seal(); err != nil {
				t.Errorf("seal: %v", err)
				return
			}
			observe()
			if err := l.Compact(); err != nil {
				t.Errorf("compact: %v", err)
				return
			}
			observe()
		}
	}()

	load.Wait()
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	if s := l.Stats(); s.Seals < 4 || s.Compactions < 2 {
		t.Fatalf("the load ran too few seals or compactions to mean anything: %+v", s)
	}

	// A compaction that commits between a query's sealed segments
	// retires the segments the query holds; they must stay open until
	// the query is done. The term is new, so no lookup was cached before
	// the retirement. The hook waits for the compaction at most a second:
	// an implementation whose queries block compaction commits answers
	// from the old segments instead, which is also correct.
	late, err := l.Add("late")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	var compacted chan error
	got, err := l.boolean(func(x *Index, terms ...string) ([]uint32, error) {
		if compacted == nil {
			compacted = make(chan error, 1)
			go func() { compacted <- l.Compact() }()
			select {
			case err := <-compacted:
				compacted <- err
			case <-time.After(time.Second):
			}
		}
		return x.Disjunctive(terms...)
	}, memDisjunctive, []string{"late"})
	if err != nil || !equalU32s(got, []uint32{late}) {
		t.Fatalf("query across a compaction commit: %v, %v; want [%d]", got, err, late)
	}
	if err := <-compacted; err != nil {
		t.Fatal(err)
	}
	observe()

	// A query whose sealed-segment evaluation fails returns the error and
	// still lets go of every segment it held.
	cur := l.sealed[len(l.sealed)-1].snap.Index()
	cur.terms = map[string]termEntry{"poison": {posting: failingPosting{}}}
	if _, err := l.Conjunctive("poison", "alpha"); err == nil {
		t.Fatal("a failing sealed evaluation returned no error")
	}

	current := map[*Snapshot]bool{}
	for _, seg := range l.sealed {
		current[seg.snap] = true
		if n := seg.snap.Refs(); n != 1 {
			t.Errorf("segment %s holds %d references after the load, want 1", seg.file, n)
		}
	}
	for s := range seen {
		if !current[s] && !s.Closed() {
			t.Errorf("a retired snapshot is still open (%d references)", s.Refs())
		}
	}
}
