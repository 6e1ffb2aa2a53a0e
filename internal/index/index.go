// Package index is the information-retrieval substrate of §A.1: an
// inverted index over a document collection with compressed posting
// lists, supporting conjunctive (AND), disjunctive (OR), and top-k
// queries. Any codec from this module can back the index; the paper's
// recommendation for this workload is Roaring (§7.1).
package index

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/ops"
)

// Builder accumulates documents and compresses the index in one shot
// (document IDs are assigned in insertion order, so posting lists are
// naturally sorted). AddDocument only records the text; tokenization
// and compression happen in Build, sharded across GOMAXPROCS-capped
// workers. The built index is identical for every shard count, so the
// parallel build is a pure throughput lever.
type Builder struct {
	codec    core.Codec
	selector CodecSelector
	texts    []string
	shards   int
}

// NewBuilder returns a builder that will compress postings with codec.
func NewBuilder(codec core.Codec) *Builder {
	return &Builder{codec: codec}
}

// NewAutoBuilder returns a builder that picks a codec per posting list
// with AutoSelector — the adaptive hybrid index of the paper's §7
// lesson (no single method wins; choose per list).
func NewAutoBuilder() *Builder {
	return &Builder{selector: AutoSelector()}
}

// CodecSelector picks the compression codec for one finished posting
// list; docs is the total document count (the density denominator).
// Selectors must be pure functions of their arguments and safe for
// concurrent use: Build calls them from its compression worker pool,
// and shard-count byte-identity relies on the choice depending only on
// the final merged list.
type CodecSelector func(list []uint32, docs int) core.Codec

// SetShards fixes the ingestion shard count for Build. n <= 0 (the
// default) picks GOMAXPROCS. Explicit values are honored as given so
// determinism tests can compare arbitrary shardings; the auto default
// never exceeds the core count.
func (b *Builder) SetShards(n int) { b.shards = n }

// AddDocument records text for indexing and returns its document ID.
func (b *Builder) AddDocument(text string) uint32 {
	id := uint32(len(b.texts))
	b.texts = append(b.texts, text)
	return id
}

// shardAccum is one ingestion shard's term maps over a contiguous
// document ID range. Ranges are disjoint and increasing, so per-term
// lists from consecutive shards concatenate into exactly the list a
// serial pass would have produced.
type shardAccum struct {
	postings map[string][]uint32
	freqs    map[string][]uint16
}

// Build tokenizes and compresses every posting list and returns the
// finished index. Ingestion fans out over contiguous document shards
// and compression over a term-level worker pool; the result is
// bit-identical to a single-shard build.
func (b *Builder) Build() (*Index, error) {
	shards := b.shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(b.texts) {
		shards = max(len(b.texts), 1)
	}

	// Phase 1: per-shard tokenization into private term maps.
	accums := make([]shardAccum, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo := s * len(b.texts) / shards
		hi := (s + 1) * len(b.texts) / shards
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			acc := shardAccum{postings: map[string][]uint32{}, freqs: map[string][]uint16{}}
			counts := map[string]int{}
			for id := lo; id < hi; id++ {
				clear(counts)
				for _, tok := range Tokenize(b.texts[id]) {
					counts[tok]++
				}
				for t, f := range counts {
					acc.postings[t] = append(acc.postings[t], uint32(id))
					acc.freqs[t] = append(acc.freqs[t], uint16(min(f, 65535)))
				}
			}
			accums[s] = acc
		}(s, lo, hi)
	}
	wg.Wait()

	// Per-shard appends happen in document order within a shard but the
	// map iteration above is unordered across terms; that is fine — the
	// per-term sequences are what must stay ordered, and they are.
	names := map[string]struct{}{}
	for _, acc := range accums {
		for t := range acc.postings {
			names[t] = struct{}{}
		}
	}
	sorted := make([]string, 0, len(names))
	for t := range names {
		sorted = append(sorted, t)
	}
	sort.Strings(sorted)

	// Phase 2: deterministic merge + compression, fanned out over a
	// worker pool. Each worker owns whole terms, so no two goroutines
	// ever touch the same output slot.
	entries := make([]termEntry, len(sorted))
	workers := min(runtime.GOMAXPROCS(0), max(len(sorted), 1))
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		buildErr error
		cwg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(sorted) || failed.Load() {
					return
				}
				t := sorted[i]
				var list []uint32
				var freqs []uint16
				for _, acc := range accums {
					if p, ok := acc.postings[t]; ok {
						if list == nil {
							list, freqs = p, acc.freqs[t] // sole/first shard: reuse in place
						} else {
							list = append(list, p...)
							freqs = append(freqs, acc.freqs[t]...)
						}
					}
				}
				codec := b.codec
				if b.selector != nil {
					// Selection sees only the final merged list and the
					// document count, so any shard count picks the same
					// codec for every term.
					codec = b.selector(list, len(b.texts))
				}
				p, err := codec.Compress(list)
				if err != nil {
					errOnce.Do(func() { buildErr = fmt.Errorf("index: term %q: %w", t, err) })
					failed.Store(true)
					return
				}
				entries[i] = termEntry{posting: p, freqs: freqs, codec: codec.Name()}
			}
		}()
	}
	cwg.Wait()
	if buildErr != nil {
		return nil, buildErr
	}

	idx := &Index{terms: make(map[string]termEntry, len(sorted)), docs: len(b.texts)}
	for i, t := range sorted {
		idx.terms[t] = entries[i]
	}
	return idx, nil
}

// Tokenize lower-cases and splits text, trimming punctuation — the
// minimal analyzer the examples need.
func Tokenize(text string) []string {
	fields := strings.Fields(strings.ToLower(text))
	out := fields[:0]
	for _, f := range fields {
		if t := strings.Trim(f, ".,;:!?\"'()[]"); t != "" {
			out = append(out, t)
		}
	}
	return out
}

type termEntry struct {
	posting core.Posting
	freqs   []uint16 // payload aligned with the posting values
	codec   string   // registry name of the posting's codec ("" when unknown)

	// impacts carries the term's stored impact annotations when the
	// backing file has an impacts section; nil otherwise, in which case
	// ranked queries derive impacts from freqs on the fly.
	impacts *impactMeta

	// lazy, set on an entry resolved from a mapping, is where its
	// frequencies and impacts load from on first use: such an entry
	// leaves freqs and impacts unset. Read them through frequencies and
	// storedImpacts.
	lazy *lazyTerm
}

// frequencies returns the entry's frequencies, decoding a mapped
// term's on first use.
func (e termEntry) frequencies() []uint16 {
	if e.lazy != nil {
		return e.lazy.frequencies()
	}
	return e.freqs
}

// storedImpacts returns the entry's impact annotations, decoding a
// mapped term's on first use.
func (e termEntry) storedImpacts() *impactMeta {
	if e.lazy != nil {
		return e.lazy.storedImpacts()
	}
	return e.impacts
}

// Index answers boolean and top-k queries over compressed postings.
// Indexes come from two sources: Builder.Build / Read materialize every
// term eagerly into the terms map, while OpenFile on a BVIX3 file keeps
// postings in the mapped region and materializes them lazily through
// the lazy backend on first access.
type Index struct {
	terms map[string]termEntry
	docs  int

	// lazy, when non-nil, backs terms not present in the eager map with
	// records materialized on demand from a BVIX3 mapping.
	lazy *lazyIndex

	// cache, when attached, memoizes decoded posting lists under this
	// index's generation. See DecodedCache for the invalidation story.
	cache *DecodedCache
	gen   uint64

	// health records what degraded-mode open salvaged; the zero value
	// means a fully verified index. See OpenFileDegraded.
	health Health

	// closeOnce makes Close idempotent across every backend and gates
	// the closeHooks, which observability and tests attach via OnClose.
	closeOnce  sync.Once
	closeHooks []func()
}

// term resolves a term, consulting the eager map first and then the
// lazy BVIX3 backend. A mapped term comes back with only its docids
// decoded; its frequencies and impacts stay in the mapping until
// frequencies or storedImpacts asks for them, so a boolean query never
// reads either.
func (idx *Index) term(name string) (termEntry, bool) {
	if e, ok := idx.terms[name]; ok {
		return e, true
	}
	if idx.lazy != nil {
		return idx.lazy.entry(name)
	}
	return termEntry{}, false
}

// AttachCache connects a decoded-posting cache to the index under a
// fresh generation. Attach before the index is shared across
// goroutines (i.e. before a server publishes the snapshot): the fields
// set here are not synchronized on their own.
func (idx *Index) AttachCache(c *DecodedCache) {
	idx.cache = c
	idx.gen = c.register()
}

// Generation reports the cache generation assigned by AttachCache
// (0 when no cache is attached).
func (idx *Index) Generation() uint64 { return idx.gen }

// EmptyPostings is the sentinel slice DecodedPostings returns for terms
// absent from the index: non-nil, zero length, shared, and read-only.
// Callers can range over or len() it without a nil check and must never
// append to or mutate it.
var EmptyPostings = make([]uint32, 0)

// DecodedPostings returns the decoded posting list for a term,
// consulting the attached cache first. Unknown terms yield the
// EmptyPostings sentinel (never nil). The returned slice is shared and
// read-only: it may be served concurrently to other queries. Callers
// that need to mutate must copy.
func (idx *Index) DecodedPostings(term string) []uint32 {
	e, ok := idx.term(term)
	if !ok {
		return EmptyPostings
	}
	if idx.cache != nil {
		if vals, ok := idx.cache.get(idx.gen, term); ok {
			return vals
		}
	}
	vals := e.posting.Decompress()
	if idx.cache != nil {
		idx.cache.put(idx.gen, term, vals)
	}
	return vals
}

// Docs reports the number of indexed documents.
func (idx *Index) Docs() int { return idx.docs }

// Terms reports the vocabulary size — for a degraded index, the terms
// actually servable (quarantined ones excluded).
func (idx *Index) Terms() int {
	if idx.lazy != nil {
		return idx.lazy.termCount - len(idx.lazy.quarantined)
	}
	return len(idx.terms)
}

// SizeBytes reports the compressed footprint of all posting lists. For
// lazily opened indexes this is the serialized posting footprint from
// the dictionary scan done at open time — no posting is materialized
// to answer it. (Serialized blobs carry self-describing headers, so
// the number runs slightly higher than the in-memory accounting of a
// built index.)
func (idx *Index) SizeBytes() int {
	if idx.lazy != nil {
		return idx.lazy.sizeBytes
	}
	s := 0
	for _, e := range idx.terms {
		s += e.posting.SizeBytes()
	}
	return s
}

// Postings returns the compressed posting list for a term. Unknown
// terms yield the EmptyPosting sentinel (never nil), so callers can
// chain Len/Decompress without a nil check.
func (idx *Index) Postings(term string) core.Posting {
	if e, ok := idx.term(term); ok {
		return e.posting
	}
	return EmptyPosting
}

// EmptyPosting is the sentinel Postings returns for terms absent from
// the index: an immutable posting with zero values. Comparable with ==.
var EmptyPosting core.Posting = emptyPosting{}

// emptyPosting is the canonical zero-value posting behind EmptyPosting.
type emptyPosting struct{}

func (emptyPosting) Len() int                               { return 0 }
func (emptyPosting) SizeBytes() int                         { return 0 }
func (emptyPosting) Decompress() []uint32                   { return EmptyPostings }
func (emptyPosting) DecompressAppend(dst []uint32) []uint32 { return dst }

// OnClose registers fn to run when the index is first Closed — the
// observation hook the snapshot-lifecycle tests and operational
// logging use. Register before the index is shared across goroutines
// (i.e. before a server publishes the snapshot); the hook slice is not
// synchronized on its own.
func (idx *Index) OnClose(fn func()) {
	idx.closeHooks = append(idx.closeHooks, fn)
}

// Close releases the mapped file backing an index opened with OpenFile
// (a no-op for built or eagerly read indexes). Postings materialized
// before Close remain usable — decoders copy out of the mapping — but
// terms not yet materialized become unreachable: lookups report them
// as absent. Close is idempotent: only the first call does work and
// runs the OnClose hooks. Do not Close an index that is still being
// served; the refcounted Snapshot wrapper is how the server guarantees
// that.
func (idx *Index) Close() error {
	var err error
	idx.closeOnce.Do(func() {
		if idx.lazy != nil {
			err = idx.lazy.close()
		}
		for _, fn := range idx.closeHooks {
			fn()
		}
	})
	return err
}

// Conjunctive returns the documents containing every term, via SvS
// intersection over the compressed postings.
func (idx *Index) Conjunctive(terms ...string) ([]uint32, error) {
	ps := make([]core.Posting, 0, len(terms))
	for _, t := range terms {
		e, ok := idx.term(t)
		if !ok {
			return nil, nil // a missing term empties the conjunction
		}
		ps = append(ps, e.posting)
	}
	return ops.Intersect(ps)
}

// Disjunctive returns the documents containing at least one term,
// straight from the compressed postings: a dense union ORs them into
// one word array (Roaring containers word-wise, list blocks bit by
// bit), a sparse one takes the native same-codec pair, then a merge.
// It never reads the decoded cache, whose only reader is top-k.
func (idx *Index) Disjunctive(terms ...string) ([]uint32, error) {
	return ops.Union(idx.postings(terms))
}

// postings returns the postings of the terms present in the index.
func (idx *Index) postings(terms []string) []core.Posting {
	var ps []core.Posting
	for _, t := range terms {
		if e, ok := idx.term(t); ok {
			ps = append(ps, e.posting)
		}
	}
	return ps
}

// Result is one ranked document.
type Result = ops.ScoredDoc

// TopK ranks the documents matching at least one query term by summed
// quantized impact, descending (ascending docid on ties), and returns
// the best k. It runs ops.TopK's Block-Max mode over each term's
// impacts: the stored annotations of an index written with them, or
// annotations derived from the frequencies (pure document counting when
// no frequencies exist). Only a list-coded term with stored impacts is
// decoded block by block, so that blocks which cannot beat the heap
// threshold stay compressed; any other term is decoded whole (from the
// decoded cache when attached). A multi-term query dense in the docids
// it spans is scored in one score array instead, reading every block
// once. Terms absent from the index simply contribute nothing.
func (idx *Index) TopK(k int, terms ...string) ([]Result, error) {
	return idx.TopKWith("", k, nil, terms...)
}

// TopKWith is TopK with optional work accounting and the algorithm
// named: "" or "auto" or "bmw" for the Block-Max mode (Block-Max-WAND,
// or the dense scorer when the query is dense), "exhaustive" for the
// reference that scores every document — both return the identical
// result list, so naming one is for benchmarking and differential
// testing. When stats is non-nil it is filled with the evaluation's
// work counters.
func (idx *Index) TopKWith(algo string, k int, stats *ops.TopKStats, terms ...string) ([]Result, error) {
	mode, err := topkMode(algo)
	if err != nil {
		return nil, err
	}
	return ops.TopK(mode, k, idx.topkLists(terms), stats), nil
}

// topkMode resolves a TopKWith algorithm name — the one check both
// Index and Live make before anything else.
func topkMode(algo string) (ops.TopKMode, error) {
	switch algo {
	case "", "auto", "bmw":
		return ops.TopKBlockMax, nil
	case "exhaustive":
		return ops.TopKExhaustive, nil
	}
	return 0, fmt.Errorf("index: unknown top-k algorithm %q", algo)
}
