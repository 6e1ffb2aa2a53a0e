package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/codecs"
	"repro/internal/index"
	"repro/internal/server"
)

// testCorpus generates a deterministic corpus with long, short, and
// tied-score lists so booleans and rankings are all non-trivial.
func testCorpus(docs int) []string {
	out := make([]string, docs)
	for i := 0; i < docs; i++ {
		var sb strings.Builder
		sb.WriteString("common ")
		if i%2 == 0 {
			for r := 0; r <= i%4; r++ {
				sb.WriteString("even ")
			}
		}
		if i%3 == 0 {
			sb.WriteString("third ")
		}
		if i%5 == 0 {
			sb.WriteString("five five ")
		}
		if i%37 == 0 {
			sb.WriteString("rare rare rare ")
		}
		out[i] = sb.String()
	}
	return out
}

func buildIndex(t *testing.T, docs []string) *index.Index {
	t.Helper()
	codec, err := codecs.ByName("VB")
	if err != nil {
		t.Fatal(err)
	}
	b := index.NewBuilder(codec)
	for _, d := range docs {
		b.AddDocument(d)
	}
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

// newTestRouter partitions docs over n shards of in-process backends
// (replicasPerShard each, all over the same shard index).
func newTestRouter(t *testing.T, docs []string, n, replicasPerShard int, cfg RouterConfig) *Router {
	t.Helper()
	parts, err := Partition(docs, n)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([][]Backend, n)
	for s, part := range parts {
		idx := buildIndex(t, part)
		for rep := 0; rep < replicasPerShard; rep++ {
			backends[s] = append(backends[s], &IndexBackend{Idx: idx, Label: fmt.Sprintf("s%d-r%d", s, rep)})
		}
	}
	r, err := NewRouter(cfg, backends)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPartitionMath(t *testing.T) {
	n := 7
	for g := uint32(0); g < 1000; g++ {
		s := ShardOf(g, n)
		l := LocalID(g, n)
		if back := GlobalID(l, s, n); back != g {
			t.Fatalf("roundtrip %d -> (shard %d, local %d) -> %d", g, s, l, back)
		}
	}
	docs := testCorpus(100)
	parts, err := Partition(docs, 7)
	if err != nil {
		t.Fatal(err)
	}
	for s, part := range parts {
		for l, d := range part {
			if want := docs[GlobalID(uint32(l), s, 7)]; d != want {
				t.Fatalf("shard %d local %d holds wrong document", s, l)
			}
		}
	}
}

func TestPartitionRefusals(t *testing.T) {
	docs := testCorpus(5)
	if _, err := Partition(docs, 6); err == nil {
		t.Fatal("6 shards over 5 docs must refuse (empty shard)")
	}
	if _, err := Partition(docs, 0); err == nil {
		t.Fatal("0 shards must refuse")
	}
	if _, err := Partition(docs, MaxShards+1); err == nil {
		t.Fatal("over MaxShards must refuse")
	}
	if _, err := Partition(docs, 5); err != nil {
		t.Fatalf("5 shards over 5 docs is legal: %v", err)
	}
}

// TestRouterIdentity is the merge-exactness proof at unit scale: every
// mode through the router across shard counts must equal
// the single-index reference bit for bit.
func TestRouterIdentity(t *testing.T) {
	docs := testCorpus(211) // prime, so shard sizes differ
	ref := buildIndex(t, docs)
	queries := [][]string{
		{"common"}, {"even"}, {"rare"},
		{"even", "third"}, {"common", "five", "rare"},
		{"even", "five"}, {"missing"}, {"rare", "missing"},
	}
	ctx := context.Background()
	for _, n := range []int{1, 2, 3, 4, 8} {
		r := newTestRouter(t, docs, n, 1, RouterConfig{})
		for _, q := range queries {
			for _, mode := range []string{"and", "or"} {
				var want []uint32
				var err error
				if mode == "and" {
					want, err = ref.Conjunctive(q...)
				} else {
					want, err = ref.Disjunctive(q...)
				}
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Search(ctx, Request{Mode: mode, Terms: q})
				if err != nil {
					t.Fatalf("n=%d %s %v: %v", n, mode, q, err)
				}
				if got.Partial {
					t.Fatalf("n=%d %s %v: unexpected partial", n, mode, q)
				}
				if len(got.Docs) != len(want) {
					t.Fatalf("n=%d %s %v: %d docs, want %d", n, mode, q, len(got.Docs), len(want))
				}
				for i := range want {
					if got.Docs[i] != want[i] {
						t.Fatalf("n=%d %s %v: doc[%d]=%d, want %d", n, mode, q, i, got.Docs[i], want[i])
					}
				}
			}
			for _, k := range []int{1, 5, 20, 100000} {
				want, err := ref.TopKWith("exhaustive", k, nil, q...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Search(ctx, Request{Mode: "topk", Terms: q, K: k})
				if err != nil {
					t.Fatalf("n=%d topk %v k=%d: %v", n, q, k, err)
				}
				if len(got.Ranked) != len(want) {
					t.Fatalf("n=%d topk %v k=%d: %d results, want %d", n, q, k, len(got.Ranked), len(want))
				}
				for i := range want {
					if got.Ranked[i] != want[i] {
						t.Fatalf("n=%d topk %v k=%d: rank %d = %+v, want %+v",
							n, q, k, i, got.Ranked[i], want[i])
					}
				}
			}
		}
	}
}

// errBackend fails every call; it stands in for a dead replica.
type errBackend struct{}

func (errBackend) Search(ctx context.Context, req Request) (index.Answer, error) {
	return index.Answer{}, errors.New("replica down")
}
func (errBackend) Health(ctx context.Context) error { return errors.New("replica down") }
func (errBackend) Name() string                     { return "dead" }

// TestRouterDegradedPartial proves the failure model: a dead shard
// yields a partial answer that is exactly the merge of the live
// shards — a subset of truth, never wrong rows.
func TestRouterDegradedPartial(t *testing.T) {
	docs := testCorpus(120)
	ref := buildIndex(t, docs)
	n := 3
	parts, err := Partition(docs, n)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([][]Backend, n)
	for s, part := range parts {
		if s == 1 {
			backends[s] = []Backend{errBackend{}}
			continue
		}
		backends[s] = []Backend{&IndexBackend{Idx: buildIndex(t, part)}}
	}
	r, err := NewRouter(RouterConfig{ShardTimeout: time.Second}, backends)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Search(context.Background(), Request{Mode: "or", Terms: []string{"even", "third"}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Partial || len(got.Degraded) != 1 || got.Degraded[0] != 1 {
		t.Fatalf("want partial with shard 1 degraded, got partial=%v degraded=%v", got.Partial, got.Degraded)
	}
	full, err := ref.Disjunctive("even", "third")
	if err != nil {
		t.Fatal(err)
	}
	inFull := make(map[uint32]bool, len(full))
	for _, d := range full {
		inFull[d] = true
	}
	for i, d := range got.Docs {
		if !inFull[d] {
			t.Fatalf("partial answer contains doc %d not in the truth", d)
		}
		if ShardOf(d, n) == 1 {
			t.Fatalf("partial answer contains doc %d from the dead shard", d)
		}
		if i > 0 && got.Docs[i-1] >= d {
			t.Fatalf("partial answer not sorted at %d", i)
		}
	}
	// Exactly the truth minus the dead shard's documents.
	wantLive := 0
	for _, d := range full {
		if ShardOf(d, n) != 1 {
			wantLive++
		}
	}
	if len(got.Docs) != wantLive {
		t.Fatalf("partial answer has %d docs, want %d (truth minus dead shard)", len(got.Docs), wantLive)
	}
	if st := r.Stats(); st[1].Degraded == 0 {
		t.Fatal("shard 1 degraded counter did not move")
	}
}

// TestRouterAllShardsDown: when no shard answers, Search errors rather
// than fabricating an empty result.
func TestRouterAllShardsDown(t *testing.T) {
	r, err := NewRouter(RouterConfig{ShardTimeout: 200 * time.Millisecond}, [][]Backend{{errBackend{}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Search(context.Background(), Request{Mode: "and", Terms: []string{"x"}}); err == nil {
		t.Fatal("all shards down must error")
	}
}

// TestRouterFailover: a dead primary replica fails over to the live
// one without waiting out the hedge delay, hedging disabled.
func TestRouterFailover(t *testing.T) {
	docs := testCorpus(60)
	idx := buildIndex(t, docs)
	backends := [][]Backend{{errBackend{}, &IndexBackend{Idx: idx, Label: "live"}}}
	r, err := NewRouter(RouterConfig{ShardTimeout: time.Second}, backends)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		got, err := r.Search(context.Background(), Request{Mode: "and", Terms: []string{"common"}})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got.Partial || len(got.Docs) != 60 {
			t.Fatalf("query %d: partial=%v docs=%d, want full 60", i, got.Partial, len(got.Docs))
		}
	}
}

// TestRouterHedging injects a straggler replica and checks the backup
// path: hedges fire after the adaptive delay and the fast replica's
// answer wins, with results still exact.
func TestRouterHedging(t *testing.T) {
	docs := testCorpus(60)
	idx := buildIndex(t, docs)
	backends := [][]Backend{{
		&IndexBackend{Idx: idx, Label: "slow", Delay: 60 * time.Millisecond},
		&IndexBackend{Idx: idx, Label: "fast"},
	}}
	cfg := RouterConfig{Hedge: true, HedgeMin: time.Millisecond, HedgeMax: 5 * time.Millisecond, ShardTimeout: 2 * time.Second}
	r, err := NewRouter(cfg, backends)
	if err != nil {
		t.Fatal(err)
	}
	want, err := idx.Conjunctive("even")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		got, err := r.Search(context.Background(), Request{Mode: "and", Terms: []string{"even"}})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if len(got.Docs) != len(want) {
			t.Fatalf("query %d: %d docs, want %d", i, len(got.Docs), len(want))
		}
	}
	st := r.Stats()[0]
	if st.Hedged == 0 {
		t.Fatal("no hedges fired against a 60ms straggler with a 5ms max delay")
	}
	if st.HedgeWins == 0 {
		t.Fatal("no hedge ever won against a 60ms straggler")
	}
	if st.Latency.Count == 0 {
		t.Fatal("completion latency histogram empty")
	}
}

// TestRouterHTTP drives the full HTTP front: all query modes, stats,
// health, and the degraded-partial response shape.
func TestRouterHTTP(t *testing.T) {
	docs := testCorpus(90)
	ref := buildIndex(t, docs)
	r := newTestRouter(t, docs, 2, 1, RouterConfig{})
	srv := server.NewFront(r, server.Config{Logger: log.New(io.Discard, "", 0)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	}()

	getJSON := func(path string, wantStatus int) map[string]interface{} {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != wantStatus {
			t.Fatalf("GET %s: %s (%s)", path, resp.Status, body)
		}
		var m map[string]interface{}
		if err := json.Unmarshal(body, &m); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
		return m
	}

	// Wait for readiness.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("router never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}

	m := getJSON("/search?q=even+third&mode=and", http.StatusOK)
	want, _ := ref.Conjunctive("even", "third")
	if int(m["matches"].(float64)) != len(want) {
		t.Fatalf("and matches = %v, want %d", m["matches"], len(want))
	}
	if m["partial"] == true {
		t.Fatal("unexpected partial")
	}
	m = getJSON("/search?q=even&mode=topk&k=5", http.StatusOK)
	if int(m["matches"].(float64)) != 5 {
		t.Fatalf("topk matches = %v, want 5", m["matches"])
	}
	wantTop, _ := ref.TopKWith("exhaustive", 5, nil, "even")
	ranked := m["ranked"].([]interface{})
	for i, raw := range ranked {
		row := raw.(map[string]interface{})
		if uint32(row["Doc"].(float64)) != wantTop[i].Doc || int(row["Score"].(float64)) != wantTop[i].Score {
			t.Fatalf("rank %d = %v, want %+v", i, row, wantTop[i])
		}
	}
	getJSON("/search?q=&mode=and", http.StatusBadRequest)
	getJSON("/search?q=x&mode=bogus", http.StatusBadRequest)
	getJSON("/search?q=x&mode=topk&k=0", http.StatusBadRequest)

	m = getJSON("/stats", http.StatusOK)
	if int(m["shards"].(float64)) != 2 {
		t.Fatalf("stats shards = %v", m["shards"])
	}
	if len(m["perShard"].([]interface{})) != 2 {
		t.Fatal("stats missing per-shard rows")
	}
	m = getJSON("/healthz", http.StatusOK)
	if m["status"] != "ok" {
		t.Fatalf("healthz = %v, want ok", m["status"])
	}
}

// TestRouterHTTPPartial: a dead shard shows up as healthz "partial"
// and /search answers 200 with partial=true and the shard listed.
func TestRouterHTTPPartial(t *testing.T) {
	docs := testCorpus(60)
	parts, err := Partition(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	backends := [][]Backend{
		{&IndexBackend{Idx: buildIndex(t, parts[0])}},
		{errBackend{}},
	}
	r, err := NewRouter(RouterConfig{ShardTimeout: 500 * time.Millisecond}, backends)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.NewFront(r, server.Config{Logger: log.New(io.Discard, "", 0)})
	h := srv.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, mustReq(t, "/search?q=common&mode=and"))
	if rec.Code != http.StatusOK {
		t.Fatalf("search with dead shard: status %d", rec.Code)
	}
	var sr server.SearchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Partial || len(sr.DegradedShards) != 1 || sr.DegradedShards[0] != 1 {
		t.Fatalf("want partial with shard 1 degraded, got %+v", sr)
	}
	for _, d := range sr.Docs {
		if ShardOf(d, 2) == 1 {
			t.Fatalf("doc %d from dead shard in partial answer", d)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, mustReq(t, "/healthz"))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	var hz map[string]interface{}
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "partial" {
		t.Fatalf("healthz status = %v, want partial", hz["status"])
	}
}

// TestRouterRelaysShardBadRequest: the router's own limit admits
// k=5000 but both bvserve shards refuse it (their -max-k is 1000). That
// is the caller's error, so the router front must answer the shards'
// own 400 body — not "all shards failed"/503 — without failing over,
// hedging, or counting either shard degraded.
func TestRouterRelaysShardBadRequest(t *testing.T) {
	quiet := log.New(io.Discard, "", 0)
	parts, err := Partition(testCorpus(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	fronts := make([]*server.Server, 2)
	backends := make([][]Backend, 2)
	for s, part := range parts {
		fronts[s] = server.New(buildIndex(t, part), server.Config{Logger: quiet})
		ts := httptest.NewServer(fronts[s].Handler())
		defer ts.Close()
		// Two replicas of the same server: a failover would show up as a
		// second request in its status counters.
		backends[s] = []Backend{&HTTPBackend{Base: ts.URL}, &HTTPBackend{Base: ts.URL}}
	}
	// Hedging on, but far beyond the round trip: only failover could
	// send a second attempt.
	r, err := NewRouter(RouterConfig{Hedge: true, HedgeMin: time.Minute, HedgeMax: time.Minute}, backends)
	if err != nil {
		t.Fatal(err)
	}
	h := server.NewFront(r, server.Config{Logger: quiet, MaxK: 100000}).Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, mustReq(t, "/search?q=common&mode=topk&k=5000"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("k over the shards' limit: status %d (%s), want 400", rec.Code, rec.Body)
	}
	direct := httptest.NewRecorder()
	fronts[0].Handler().ServeHTTP(direct, mustReq(t, "/search?q=common&mode=topk&k=5000"))
	if rec.Body.String() != direct.Body.String() || !strings.Contains(rec.Body.String(), "k=5000 exceeds limit 1000") {
		t.Fatalf("router body %q, shard body %q", rec.Body, direct.Body)
	}
	for s, st := range r.Stats() {
		if st.Degraded != 0 {
			t.Errorf("shard %d counted degraded for a caller error", s)
		}
		// Shard 0 also answered the direct request above.
		if got, want := fronts[s].StatusCounts()["4xx"], int64(2-s); got != want {
			t.Errorf("shard %d refused %d requests, want %d (no failover)", s, got, want)
		}
	}
	// The fleet is intact: the same query within limits still answers.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, mustReq(t, "/search?q=common&mode=topk&k=5"))
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up query: status %d (%s)", rec.Code, rec.Body)
	}
}

func mustReq(t *testing.T, path string) *http.Request {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, "http://router"+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	return req
}
