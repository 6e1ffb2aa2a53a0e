package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultio"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/wal"
)

// live-mixed runs writes beside reads against bvserve -live. The
// harness preloads a live directory through index.OpenLive — C100
// sealed into one segment, then livePreWAL sentinel documents left in
// the WAL — and the server is started on it with a fixed, stated flush
// policy. One writer connection ingests documents (each carrying a
// unique sentinel term and words from a vocabulary disjoint from
// C100's, so the static answers never change) and deletes one acked
// document in every ten operations; one reader connection replays C100
// queries and, one time in five, looks up a recently acked sentinel or
// a recently deleted one. Then the server is killed with SIGKILL,
// restarted on the same directory, and every acked write is checked.
const (
	livePreWAL = 5000
	// -seal-docs. At the ≈ 280 acks/s the writer sustains, the fourth
	// segment and with it the second compaction arrive about 8 s into a
	// 10 s window and the third well after it, so every run sees the
	// same background work.
	liveSealDocs  = 450
	liveCompactAt = 4 // -compact-segments
	liveWindow    = "2ms"
	writeVocab    = 500
)

var liveFlags = []string{"-fsync-window", liveWindow, "-seal-docs", strconv.Itoa(liveSealDocs), "-compact-segments", strconv.Itoa(liveCompactAt)}

// tapFS is the public wal/index file-system seam with fsyncs counted
// and, for preloading, skipped: the harness's own set-up does not need
// to survive a power cut, and a hundred thousand real fsyncs would
// take longer than the run.
type tapFS struct {
	faultio.FS
	syncs *atomic.Int64
	skip  bool
}

type tapFile struct {
	faultio.File
	fs tapFS
}

func (t tapFS) wrap(f faultio.File, err error) (faultio.File, error) {
	if err != nil {
		return nil, err
	}
	return tapFile{f, t}, nil
}

func (t tapFS) Create(path string) (faultio.File, error)     { return t.wrap(t.FS.Create(path)) }
func (t tapFS) OpenAppend(path string) (faultio.File, error) { return t.wrap(t.FS.OpenAppend(path)) }

func (t tapFS) SyncDir(dir string) error {
	if t.skip {
		return nil
	}
	return t.FS.SyncDir(dir)
}

func (f tapFile) Sync() error {
	f.fs.syncs.Add(1)
	if f.fs.skip {
		return nil
	}
	return f.File.Sync()
}

func noSyncFS() tapFS { return tapFS{FS: faultio.OS, syncs: new(atomic.Int64), skip: true} }

// writeDoc is the text of written document seq: its sentinel, then 4
// to 15 words of the write vocabulary.
func writeDoc(rng *rand.Rand, zipf *rand.Zipf, seq int) string {
	var b strings.Builder
	b.WriteString(sentinel(seq))
	for w := 4 + rng.Intn(12); w > 0; w-- {
		fmt.Fprintf(&b, " w%04d", zipf.Uint64())
	}
	return b.String()
}

func sentinel(seq int) string { return fmt.Sprintf("s%07d", seq) }

// acked is what the writer knows to be durable, shared with the reader
// and kept for the sweep after the kill.
type acked struct {
	mu    sync.Mutex
	docs  []ackedDoc // index = sentinel sequence number
	fresh []int      // sequence numbers in the order their last ack arrived
}

type ackedDoc struct {
	doc   uint32
	state uint8 // stLive, stDeleting (a delete is in flight: unknown), stDeleted
}

const (
	stLive = iota
	stDeleting
	stDeleted
)

func (a *acked) add(doc uint32) {
	a.mu.Lock()
	a.docs = append(a.docs, ackedDoc{doc: doc})
	a.fresh = append(a.fresh, len(a.docs)-1)
	a.mu.Unlock()
}

func (a *acked) setState(seq int, st uint8) {
	a.mu.Lock()
	a.docs[seq].state = st
	if st == stDeleted {
		a.fresh = append(a.fresh, seq)
	}
	a.mu.Unlock()
}

// recent picks one of the 64 most recent acks, or false when it is a
// document whose delete is still in flight.
func (a *acked) recent(rng *rand.Rand) (seq int, d ackedDoc, ok bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	seq = a.fresh[len(a.fresh)-1-rng.Intn(min(64, len(a.fresh)))]
	return seq, a.docs[seq], a.docs[seq].state != stDeleting
}

// sentinelQuery is the lookup of one written document: exactly its
// docid while it lives, nothing once its delete was acked.
func sentinelQuery(seq int, d ackedDoc) query {
	q := query{mode: "and", class: classPoint, url: "/search?q=" + sentinel(seq) + "&mode=and"}
	if d.state == stLive {
		docs := []uint32{d.doc}
		q.wantN, q.wantH, q.wantCRC = 1, hashDocs(hashSeed, docs), crcOfDocs(docs)
	}
	return q
}

// classWrite tags the writer's samples in a tally.
const classWrite = numClasses

// liveLoad runs the writer and the reader side by side for d.
func liveLoad(base string, qs []query, log *acked, seed int64, d time.Duration) (reads, writes *tally) {
	reads, writes = &tally{}, &tally{}
	cpu0, start := selfCPU(), time.Now()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		cl := newClient(base)
		defer cl.close()
		rng := rand.New(rand.NewSource(seed + 1))
		zipf := rand.NewZipf(rng, 1.2, 1, writeVocab-1)
		// Deletes take the oldest acked document first. Those are the
		// preloaded ones, thousands of acks behind the 64 the reader
		// samples as live, so a lookup never races the delete of its own
		// target; by then they sit in a sealed segment, so each delete is
		// a tombstone over sealed data.
		victim := 0
		for op := 1; time.Since(start) < d; op++ {
			t0 := time.Now()
			ok := false
			if op%10 == 0 {
				log.setState(victim, stDeleting)
				status, _, err := cl.do(http.MethodPost, "/delete", fmt.Sprintf(`{"doc":%d}`, log.docs[victim].doc))
				if ok = err == nil && status == http.StatusOK; ok {
					log.setState(victim, stDeleted)
				}
				victim++
			} else {
				status, body, err := cl.do(http.MethodPost, "/ingest", `{"text":"`+writeDoc(rng, zipf, len(log.docs))+`"}`)
				doc, found := fieldUint(body, []byte(`"doc":`))
				if ok = err == nil && status == http.StatusOK && found; ok {
					log.add(uint32(doc))
				}
			}
			writes.samples = append(writes.samples, sample{time.Since(t0).Nanoseconds(), classWrite, ok})
		}
	}()
	go func() { // reader
		defer wg.Done()
		cl := newClient(base)
		defer cl.close()
		rng := rand.New(rand.NewSource(seed + 2))
		for op, next := 1, 0; time.Since(start) < d; op++ {
			q := &qs[next%len(qs)]
			if op%5 == 0 {
				seq, doc, ok := log.recent(rng)
				if !ok {
					continue
				}
				sq := sentinelQuery(seq, doc)
				q = &sq
			} else {
				next++
			}
			t0 := time.Now()
			ok, size := cl.search(q)
			reads.samples = append(reads.samples, sample{time.Since(t0).Nanoseconds(), uint8(q.class), ok})
			reads.respBytes += int64(size)
		}
	}()
	wg.Wait()
	reads.elapsed = time.Since(start)
	writes.elapsed = reads.elapsed
	reads.clientCPU = selfCPU() - cpu0
	return reads, writes
}

// liveStats is the part of bvserve -live's /stats the benchmark reads.
type liveStats struct {
	Live struct {
		Seals       int64 `json:"seals"`
		Compactions int64 `json:"compactions"`
	} `json:"live"`
}

// preloadLive fills dir: the corpus sealed into segments of perSeg
// documents, then extra sentinel documents left in the WAL. It returns
// the sentinel log the sweep starts from.
func preloadLive(dir string, c *corpus, perSeg, extra int, seed int64) (*acked, error) {
	l, err := index.OpenLive(dir, index.LiveOptions{FS: noSyncFS()})
	if err != nil {
		return nil, err
	}
	var line []byte
	for d := range c.docs {
		line = c.appendDoc(line[:0], d)
		if _, err := l.Add(string(line)); err != nil {
			l.Close()
			return nil, err
		}
		if (d+1)%perSeg == 0 || d == len(c.docs)-1 {
			if err := l.Seal(); err != nil {
				l.Close()
				return nil, err
			}
		}
	}
	log := &acked{}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, writeVocab-1)
	for i := 0; i < extra; i++ {
		doc, err := l.Add(writeDoc(rng, zipf, i))
		if err != nil {
			l.Close()
			return nil, err
		}
		log.add(doc)
	}
	return log, l.Close()
}

// segmentBytes sums the sealed segment files of a live directory.
func segmentBytes(dir string) (total int64) {
	files, _ := filepath.Glob(filepath.Join(dir, "seg-*.bvix"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// sweep looks up every sentinel the writer was ever acked for, on two
// connections: a live document must be found under its docid, a
// deleted one must be gone.
func sweep(r *run, base string, log *acked) {
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for seq := c; seq < len(log.docs); seq += maxConns {
				q := sentinelQuery(seq, log.docs[seq])
				if ok, _ := cl.search(&q); !ok {
					failed.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	r.attempted += len(log.docs)
	r.failed += int(failed.Load())
}

func runLive(r *run) error {
	c := genCorpus(r.seed, c100)
	tr := buildTruth(c)
	qs := genQueries(r.seed, tr, querySetSize, mixMixed)
	tr.fill(qs)
	dir, err := r.rig.subdir("live")
	if err != nil {
		return err
	}
	log, err := preloadLive(dir, c, len(c.docs), livePreWAL, r.seed)
	if err != nil {
		return err
	}
	sealedBytes := segmentBytes(dir)

	// Set-up is restart to first verified answer, WAL replay included.
	// Nothing is written between the repeats, so each finds the same
	// directory.
	args := append([]string{"-live", dir}, liveFlags...)
	var srv *proc
	var setups []float64
	// A restart takes about 25 ms, so it can afford more repeats than
	// the other workloads' set-ups to steady its median.
	for rep := 0; rep < 2*r.setupReps()+1; rep++ {
		if srv != nil {
			srv.kill()
		}
		t0 := time.Now()
		if srv, err = r.rig.start("bvserve", args...); err != nil {
			return err
		}
		if err := r.firstAnswer(srv.base, &qs[0]); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	r.tallied(closedLoop(srv.base, qs, 1, 0)) // warm-up pass
	window := r.seconds
	if r.traced {
		window = r.seconds * 7 / 10
	}
	var before, after liveStats
	if err := getJSON(srv.base+"/stats", &before); err != nil {
		return err
	}
	cpu0 := srv.cpu()
	reads, writes := liveLoad(srv.base, qs, log, r.seed, window)
	cpu := srv.cpu() - cpu0
	r.tallied(reads)
	r.tallied(writes)
	if err := getJSON(srv.base+"/stats", &after); err != nil {
		return err
	}
	rss := srv.rssPeakMB()

	// The kill: no drain, no goodbye. Then the same directory again.
	srv.kill()
	if srv, err = r.rig.start("bvserve", args...); err != nil {
		return err
	}
	defer srv.stop()
	sweep(r, srv.base, log)

	all := &tally{elapsed: reads.elapsed}
	all.merge(reads)
	all.merge(writes)
	rl, wl := reads.latencies(-1), writes.latencies(-1)
	if !r.traced {
		// Both sides of the window get one latency figure each, taken
		// inside a homogeneous class so that it does not sit on the edge
		// between two: the median ack of the writer, and the reader's
		// tail, which is its union queries.
		r.set("setup_s", median(setups), len(setups))
		r.set("throughput_qps", all.okPerSec(), all.attempted())
		r.set("latency_p50_ms", percentile(wl, 0.50), len(wl))
		r.set("latency_p95_ms", percentile(rl, 0.95), len(rl))
		r.set("bits_per_int", 8*float64(sealedBytes)/float64(tr.postings), tr.postings)
		r.set("rss_peak_mb", rss, 1)
		return nil
	}

	all.clientCPU = reads.clientCPU
	processMetrics(r, "bvserve", cpu, all)
	r.set("live.seals", float64(after.Live.Seals-before.Live.Seals), 1)
	r.set("live.compactions", float64(after.Live.Compactions-before.Live.Compactions), 1)
	r.set("live.read_p50_ms", percentile(rl, 0.50), len(rl))
	r.set("live.read_p99_ms", percentile(rl, 0.99), len(rl))
	r.set("live.ingest_docs_s", writes.okPerSec(), len(wl))
	r.set("live.ingest_ack_p50_ms", percentile(wl, 0.50), len(wl))
	r.set("live.ingest_ack_p99_ms", percentile(wl, 0.99), len(wl))
	if err := traceWAL(r); err != nil {
		return err
	}
	return traceLive(r, c, qs)
}

// sortedUS turns per-call durations into ascending µs.
func sortedUS(d []time.Duration) []float64 {
	us := make([]float64, len(d))
	for i, v := range d {
		us[i] = float64(v.Nanoseconds()) / 1e3
	}
	sort.Float64s(us)
	return us
}

// traceWAL times the log alone, through its public API and the public
// file-system seam with fsyncs counted.
func traceWAL(r *run) error {
	dir, err := r.rig.subdir("wal")
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed))
	zipf := rand.NewZipf(rng, 1.2, 1, writeVocab-1)
	const appends = 400
	payloads := make([][]byte, appends)
	for i := range payloads {
		payloads[i] = []byte("A0000" + writeDoc(rng, zipf, i)) // op byte, docid, text: index.Live's record
	}

	// One appender, every append synced on its own.
	fs := tapFS{FS: faultio.OS, syncs: new(atomic.Int64)}
	l, _, err := wal.Open(filepath.Join(dir, "sync.log"), wal.Options{FS: fs})
	if err != nil {
		return err
	}
	t0 := time.Now()
	for _, p := range payloads {
		r.check(l.Append(p) == nil)
	}
	took := time.Since(t0)
	r.set("wal.append_sync_us", float64(took.Microseconds())/appends, appends)
	r.set("wal.fsyncs_per_append", float64(fs.syncs.Load())/appends, appends)
	r.set("wal.bytes_per_doc", float64(l.Size())/appends, appends)
	if err := l.Close(); err != nil {
		return err
	}

	// Two appenders sharing the 2 ms group-commit window the server uses.
	window, _ := time.ParseDuration(liveWindow)
	l, _, err = wal.Open(filepath.Join(dir, "group.log"), wal.Options{SyncEvery: window})
	if err != nil {
		return err
	}
	acks := make([][]time.Duration, 2)
	var wg sync.WaitGroup
	for a := range acks {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := a; i < appends; i += len(acks) {
				t0 := time.Now()
				ok := l.Append(payloads[i]) == nil
				acks[a] = append(acks[a], time.Since(t0))
				if !ok {
					acks[a] = append(acks[a], opTimeout) // shows as an absurd tail
				}
			}
		}(a)
	}
	wg.Wait()
	us := sortedUS(append(acks[0], acks[1]...))
	r.attempted += appends
	r.set("wal.group_ack_p50_us", percentile(us, 0.50), len(us))
	r.set("wal.group_ack_p99_us", percentile(us, 0.99), len(us))
	return l.Close()
}

// traceLive times index.Live in-process: the write path alone and
// beside a reader, seal and compaction, queries over four segments,
// replay, and the read and write ladders up to the HTTP handler.
func traceLive(r *run, c *corpus, qs []query) error {
	dir, err := r.rig.subdir("live4")
	if err != nil {
		return err
	}
	// C100 in four sealed segments, so the static truth still holds.
	log, err := preloadLive(dir, c, len(c.docs)/liveCompactAt, livePreWAL, r.seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	l, err := index.OpenLive(dir, index.LiveOptions{})
	if err != nil {
		return err
	}
	defer l.Close()
	r.set("live.replay_docs_s", livePreWAL/time.Since(t0).Seconds(), livePreWAL)

	qs = qs[:ladderQueries]
	liveRung := rung{"live.query", func(q *query) (map[string]int, bool) {
		switch q.mode {
		case "or":
			return q.gotDocs(l.Disjunctive(q.names...))
		case "and":
			return q.gotDocs(l.Conjunctive(q.names...))
		}
		ranked, err := l.TopK(q.k, q.names...)
		return map[string]int{"ranked": len(ranked)}, err == nil && sameRanked(ranked, q.ranked)
	}}
	handler := server.NewLive(l, server.Config{Logger: discardLog, CacheBytes: -1}).Handler()
	handlerRung := rung{"server.handler", func(q *query) (map[string]int, bool) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, q.url, nil))
		return map[string]int{"bytes": rec.Body.Len()}, rec.Code == http.StatusOK && checkSearch(rec.Body.Bytes(), q)
	}}
	rungs := []rung{liveRung, handlerRung}
	r.climb(time.Now(), rungs, qs, false)
	lad := r.climb(time.Now(), rungs, qs, true)
	for class, name := range map[int]string{classAnd: "live.and_us", classOr: "live.or_us", classTopK: "live.topk_us"} {
		us, n := lad.classMean(0, qs, class)
		r.set(name, us, n)
	}
	r.traceOverhead(rungs, qs)

	// The write path: Live.Add alone, then beside a reader that keeps
	// the widest query of the set in flight.
	rng := rand.New(rand.NewSource(r.seed + 3))
	zipf := rand.NewZipf(rng, 1.2, 1, writeVocab-1)
	seq := len(log.docs)
	adds := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			text := writeDoc(rng, zipf, seq)
			seq++
			t0 := time.Now()
			_, err := l.Add(text)
			out[i] = time.Since(t0)
			r.check(err == nil)
		}
		return out
	}
	const addCount = 300
	alone := adds(addCount)
	total := time.Duration(0)
	for _, d := range alone {
		total += d
	}
	r.set("live.add_us", float64(total.Microseconds())/addCount, addCount)
	r.set("live.add_p99_us_alone", percentile(sortedUS(alone), 0.99), addCount)
	widest := &qs[0]
	for i := range qs {
		if qs[i].mode == "or" && qs[i].wantN > widest.wantN {
			widest = &qs[i]
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				l.Disjunctive(widest.names...)
			}
		}
	}()
	beside := adds(addCount)
	close(stop)
	wg.Wait()
	r.set("live.add_p99_us_with_reader", percentile(sortedUS(beside), 0.99), addCount)

	// The write ladder: the same record through the log alone, through
	// Live.Add, and through the /ingest handler, on a file-system seam
	// that skips fsync, so that the rungs differ by the work each layer
	// adds and not by the luck of two independent fsyncs (those are
	// wal.append_sync_us and live.add_us above).
	wdir, err := r.rig.subdir("writeladder")
	if err != nil {
		return err
	}
	scratch, _, err := wal.Open(filepath.Join(wdir, "ladder.log"), wal.Options{FS: noSyncFS()})
	if err != nil {
		return err
	}
	defer scratch.Close()
	wl, err := index.OpenLive(filepath.Join(wdir, "live"), index.LiveOptions{FS: noSyncFS()})
	if err != nil {
		return err
	}
	defer wl.Close()
	ingest := server.NewLive(wl, server.Config{Logger: discardLog, CacheBytes: -1}).Handler()
	epoch := time.Now()
	for i := 0; i < ladderQueries; i++ {
		text := writeDoc(rng, zipf, seq)
		seq++
		steps := []struct {
			name string
			call func() bool
		}{
			{"wal.append", func() bool { return scratch.Append([]byte("A0000"+text)) == nil }},
			{"live.add", func() bool { _, err := wl.Add(text); return err == nil }},
			{"server.ingest", func() bool {
				rec := httptest.NewRecorder()
				ingest.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(`{"text":"`+text+`"}`)))
				return rec.Code == http.StatusOK
			}},
		}
		for s, st := range steps {
			t0 := time.Now()
			ok := st.call()
			r.addSpan(epoch, ladderQueries+i, s, len(steps), st.name, t0, time.Now(), nil)
			r.check(ok)
		}
	}

	// Seal what those writes left in memory, then compact everything.
	t0 = time.Now()
	if err := l.Seal(); err != nil {
		return err
	}
	r.set("live.seal_ms", time.Since(t0).Seconds()*1e3, 1)
	t0 = time.Now()
	if err := l.Compact(); err != nil {
		return err
	}
	r.set("live.compact_ms", time.Since(t0).Seconds()*1e3, 1)
	_, ok := liveRung.call(&qs[0])
	r.check(ok)
	return nil
}
