package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ops"
	"repro/internal/server"
)

// serve-boolean and serve-topk share one topology — bvindex builds a
// bvix3+impacts index over C300 with per-list codec selection, one
// bvserve with its default 32 MiB decoded cache serves it, two
// closed-loop clients replay a 1024-query set — and differ only in the
// query mix, so that a change to decode, merge or JSON encoding moves
// the first and leaves the second flat, and a change to Block-Max
// top-k does the opposite.

// fixture is a generated static collection with its naive truth, a
// query set carrying expected answers, and the text file the indexer
// reads.
type fixture struct {
	tr   *truth
	qs   []query
	docs string // path of the one-document-per-line file
	c    *corpus
}

func (r *run) newFixture(shape corpusShape, m mix) (*fixture, error) {
	c := genCorpus(r.seed, shape)
	tr := buildTruth(c)
	qs := genQueries(r.seed, tr, querySetSize, m)
	tr.fill(qs)
	docs := filepath.Join(r.rig.dir, shape.name+".txt")
	if err := os.WriteFile(docs, c.text(), 0o644); err != nil {
		return nil, err
	}
	return &fixture{tr: tr, qs: qs, docs: docs, c: c}, nil
}

// setupReps is how many times a run performs the program's set-up; the
// median is reported as setup_s. A traced pass sets up once.
func (r *run) setupReps() int {
	if r.traced {
		return 1
	}
	return 3
}

// getJSON fetches a small JSON document such as /stats.
func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveStats is the part of bvserve's /stats the benchmark reads.
type serveStats struct {
	CompressedBytes int64 `json:"compressedBytes"`
	PostingCache    struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"postingCache"`
}

// firstAnswer sends the set's first query on a fresh connection: the
// end of set-up is the first verified answer.
func (r *run) firstAnswer(base string, q *query) error {
	cl := newClient(base)
	defer cl.close()
	if ok, _ := cl.search(q); !r.check(ok) {
		return fmt.Errorf("first answer from %s is wrong (%s)", base, q.url)
	}
	return nil
}

func runServe(r *run, m mix) error {
	fx, err := r.newFixture(c300, m)
	if err != nil {
		return err
	}
	idxPath := filepath.Join(r.rig.dir, "c300.bvix")
	var srv *proc
	var setups []float64
	for rep := 0; rep < r.setupReps(); rep++ {
		if srv != nil {
			srv.stop()
		}
		t0 := time.Now()
		if err := r.rig.run("bvindex", "-build", "-in", fx.docs, "-out", idxPath, "-codec", "auto", "-format", "bvix3+impacts"); err != nil {
			return err
		}
		if srv, err = r.rig.start("bvserve", "-index", idxPath); err != nil {
			return err
		}
		if err := r.firstAnswer(srv.base, &fx.qs[0]); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer srv.stop()

	r.tallied(closedLoop(srv.base, fx.qs, maxConns, 0)) // warm-up pass
	if r.traced {
		return traceServe(r, fx, srv, idxPath, m)
	}
	t := r.tallied(closedLoop(srv.base, fx.qs, maxConns, r.seconds))
	var st serveStats
	if err := getJSON(srv.base+"/stats", &st); err != nil {
		return err
	}
	lat := t.latencies(-1)
	r.set("setup_s", median(setups), len(setups))
	r.set("throughput_qps", t.okPerSec(), len(lat))
	r.set("latency_p50_ms", percentile(lat, 0.50), len(lat))
	r.set("latency_p95_ms", percentile(lat, 0.95), len(lat))
	r.set("bits_per_int", 8*float64(st.CompressedBytes)/float64(fx.tr.postings), fx.tr.postings)
	r.set("rss_peak_mb", srv.rssPeakMB(), 1)
	return nil
}

// processMetrics reports what a load phase cost the server and the
// generator: CPU per query from /proc, and the generator's own share
// of a core, which must stay well under one or the run measures the
// generator.
func processMetrics(r *run, name string, cpu time.Duration, t *tally) {
	r.set(name+".cpu_ms_per_query", cpu.Seconds()*1e3/float64(max(t.attempted(), 1)), t.attempted())
	r.set("loadgen.client_cpu_frac", t.clientCPU.Seconds()/t.elapsed.Seconds(), t.attempted())
}

var discardLog = log.New(io.Discard, "", 0)

// traceServe produces the per-layer numbers for the two static
// workloads: a shortened client-side run against the subprocess for
// what only a real process shows, then the in-process ladder.
func traceServe(r *run, fx *fixture, srv *proc, idxPath string, m mix) error {
	cpu0 := srv.cpu()
	t := r.tallied(closedLoop(srv.base, fx.qs, maxConns, r.seconds/2))
	processMetrics(r, "bvserve", srv.cpu()-cpu0, t)
	var st serveStats
	if err := getJSON(srv.base+"/stats", &st); err != nil {
		return err
	}
	if lookups := st.PostingCache.Hits + st.PostingCache.Misses; lookups > 0 {
		r.set("index.cache_hit_ratio", float64(st.PostingCache.Hits)/float64(lookups), int(lookups))
	}
	r.set("server.resp_bytes_mean", float64(t.respBytes)/float64(max(t.attempted(), 1)), t.attempted())
	if m == mixBoolean {
		for class, name := range map[int]string{classPoint: "server.point_p50_ms", classAnd: "server.and_p50_ms", classOr: "server.or_p50_ms"} {
			lat := t.latencies(class)
			r.set(name, percentile(lat, 0.5), len(lat))
		}
	}

	// index: build in-process, open, first touch of lazy terms.
	t0 := time.Now()
	b := index.NewAutoBuilder()
	var line []byte
	for d := range fx.c.docs {
		line = fx.c.appendDoc(line[:0], d)
		b.AddDocument(string(line))
	}
	if _, err := b.Build(); err != nil {
		return err
	}
	r.set("index.build_docs_s", float64(len(fx.c.docs))/time.Since(t0).Seconds(), len(fx.c.docs))
	if fi, err := os.Stat(idxPath); err == nil {
		r.set("index.file_bytes_per_posting", float64(fi.Size())/float64(fx.tr.postings), fx.tr.postings)
	}

	qs := fx.qs[:ladderQueries]
	t0 = time.Now()
	cold, err := index.OpenFile(idxPath)
	if err != nil {
		return err
	}
	defer cold.Close()
	docs, err := cold.Conjunctive(qs[0].names[0])
	r.check(err == nil && len(docs) == len(fx.tr.docs[qs[0].terms[0]]))
	r.set("index.open_ms", time.Since(t0).Seconds()*1e3, 1)
	touched := map[string]bool{qs[0].names[0]: true}
	var coldNS time.Duration
	for i := range qs {
		for _, name := range qs[i].names {
			if !touched[name] {
				touched[name] = true
				t0 = time.Now()
				cold.Postings(name)
				coldNS += time.Since(t0)
			}
		}
	}
	r.set("index.lookup_cold_us", float64(coldNS.Microseconds())/float64(len(touched)-1), len(touched)-1)

	// The ladder runs on a second mapping of the same file with no
	// decoded cache, so that every rung really is a step of the rung
	// above: without a cache index.Disjunctive is ops.Union over the
	// terms' postings, which decodes them. (With the cache, a warm union
	// merges cached lists and neither decodes nor calls ops.Union; that
	// path is timed beside the ladder as index.or_cached_us.)
	idx, err := index.OpenFile(idxPath)
	if err != nil {
		return err
	}
	defer idx.Close()
	handler := server.New(idx, server.Config{Logger: discardLog, CacheBytes: -1}).Handler()
	ts := httptest.NewServer(handler)
	defer ts.Close()
	cl := newClient(ts.URL)
	defer cl.close()

	postings := func(q *query) []core.Posting {
		ps := make([]core.Posting, len(q.names))
		for i, name := range q.names {
			ps[i] = idx.Postings(name)
		}
		return ps
	}
	buf := make([]uint32, 0, len(fx.c.docs))
	// The decode the layers above actually perform: every operand of a
	// union, but only the shortest operand of an intersection, which
	// probes the longer ones through their skip structure.
	decode := rung{"posting.decode", func(q *query) (map[string]int, bool) {
		ps := postings(q)
		if q.mode == "and" {
			shortest := ps[0]
			for _, p := range ps[1:] {
				if p.Len() < shortest.Len() {
					shortest = p
				}
			}
			ps = []core.Posting{shortest}
		}
		n := 0
		for _, p := range ps {
			n += len(core.DecompressAppend(p, buf[:0]))
		}
		return map[string]int{"values": n}, true
	}}
	// The serial ops entry points, which are what index calls.
	opsRung := rung{"ops.eval", func(q *query) (map[string]int, bool) {
		if q.mode == "or" {
			return q.gotDocs(ops.Union(postings(q)))
		}
		return q.gotDocs(ops.Intersect(postings(q)))
	}}
	indexRung := rung{"index.query", func(q *query) (map[string]int, bool) {
		switch q.mode {
		case "or":
			return q.gotDocs(idx.Disjunctive(q.names...))
		case "and":
			return q.gotDocs(idx.Conjunctive(q.names...))
		}
		var stats ops.TopKStats
		ranked, err := idx.TopKWith("", q.k, &stats, q.names...)
		return map[string]int{"blocksDecoded": stats.BlocksDecoded, "blocksTotal": stats.BlocksTotal, "docsScored": stats.DocsScored},
			err == nil && sameRanked(ranked, q.ranked)
	}}
	handlerRung := rung{"server.handler", func(q *query) (map[string]int, bool) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.url, nil))
		body := rec.Body.Bytes()
		return map[string]int{"bytes": len(body)}, rec.Code == http.StatusOK && checkSearch(body, q)
	}}
	httpRung := rung{"http.loopback", func(q *query) (map[string]int, bool) {
		ok, size := cl.search(q)
		return map[string]int{"bytes": size}, ok
	}}

	rungs := []rung{decode, opsRung, indexRung, handlerRung, httpRung}
	if m == mixTopK {
		// Block-Max decodes only the blocks it lands on, so a full decode
		// is not a step of this path; the ladder starts at the index.
		rungs = []rung{indexRung, handlerRung, httpRung}
	}
	r.climb(time.Now(), rungs, qs, false) // warm the in-process copy
	lad := r.climb(time.Now(), rungs, qs, true)
	top := len(rungs) - 1
	r.set("server.http_self_us", lad.selfMean(top)/1e3, len(qs))
	if m == mixTopK {
		r.set("index.topk_us", lad.mean(0)/1e3, len(qs))
		r.set("server.handler_self_topk_us", lad.selfMean(1)/1e3, len(qs))
		traceTopK(r, idx, qs)
	} else {
		r.set("server.handler_self_us", lad.selfMean(3)/1e3, len(qs))
		traceBoolean(r, idxPath, qs, lad, postings)
	}
	r.traceOverhead(rungs, qs)
	return nil
}

func sameRanked(got []index.Result, want []rankedDoc) bool {
	if len(got) != len(want) {
		return false
	}
	for i, g := range got {
		if g.Doc != want[i].doc || g.Score != want[i].score {
			return false
		}
	}
	return true
}

// meanOver calls fn for every query of the given class and returns the
// mean time per call in µs and the number of calls.
func meanOver(qs []query, class int, fn func(q *query)) (us float64, n int) {
	var total time.Duration
	for i := range qs {
		if qs[i].class != class {
			continue
		}
		t0 := time.Now()
		fn(&qs[i])
		total += time.Since(t0)
		n++
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(max(n, 1)), n
}

// traceBoolean fills the ops and index figures of the boolean mix from
// the ladder and from the two paths the ladder does not take: the
// pooled ops.Engine the serial union is compared against, and union
// through the decoded cache.
func traceBoolean(r *run, idxPath string, qs []query, lad *ladderResult, postings func(*query) []core.Posting) {
	fromLadder := func(name string, rung, class int) {
		us, n := lad.classMean(rung, qs, class)
		r.set(name, us, n)
	}
	fromLadder("ops.intersect_us", 1, classAnd)
	fromLadder("ops.union_serial_us", 1, classOr)
	fromLadder("index.and_us", 2, classAnd)
	fromLadder("index.or_uncached_us", 2, classOr)

	us, n := meanOver(qs, classOr, func(q *query) {
		docs, err := ops.Default().Union(postings(q))
		r.check(err == nil && len(docs) == q.wantN)
	})
	r.set("ops.union_engine_us", us, n)

	if cached, err := index.OpenFile(idxPath); err == nil {
		cached.AttachCache(index.NewDecodedCache(32 << 20)) // bvserve's default -cache-mb
		union := func(q *query) {
			docs, err := cached.Disjunctive(q.names...)
			r.check(err == nil && len(docs) == q.wantN)
		}
		meanOver(qs, classOr, union) // fill the cache
		us, n = meanOver(qs, classOr, union)
		r.set("index.or_cached_us", us, n)
		cached.Close()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range qs {
		if qs[i].mode == "or" {
			ops.Union(postings(&qs[i]))
		} else {
			ops.Intersect(postings(&qs[i]))
		}
	}
	runtime.ReadMemStats(&after)
	r.set("ops.allocs_per_query", float64(after.Mallocs-before.Mallocs)/float64(len(qs)), len(qs))
}

// traceTopK times the pruned and the exhaustive ranking on the same
// queries and reads the pruning counters, which must repeat exactly.
func traceTopK(r *run, idx *index.Index, qs []query) {
	var decoded, total, scored int
	us, n := meanOver(qs, classTopK, func(q *query) {
		var st ops.TopKStats
		ranked, err := idx.TopKWith("bmw", q.k, &st, q.names...)
		r.check(err == nil && sameRanked(ranked, q.ranked))
		decoded, total, scored = decoded+st.BlocksDecoded, total+st.BlocksTotal, scored+st.DocsScored
	})
	r.set("ops.topk_bmw_us", us, n)
	r.set("ops.topk_blocks_decoded_frac", float64(decoded)/float64(max(total, 1)), total)
	r.set("ops.topk_docs_scored", float64(scored), n)
	us, n = meanOver(qs, classTopK, func(q *query) {
		ranked, err := idx.TopKWith("exhaustive", q.k, nil, q.names...)
		r.check(err == nil && sameRanked(ranked, q.ranked))
	})
	r.set("ops.topk_exhaustive_us", us, n)
}
