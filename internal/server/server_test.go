package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/codecs"
	"repro/internal/index"
)

// quiet is a logger for tests that don't inspect log output.
var quiet = log.New(io.Discard, "", 0)

func buildIndex(t testing.TB, docs ...string) *index.Index {
	t.Helper()
	codec, err := codecs.ByName("Roaring")
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

var testDocs = []string{
	"compressed bitmap indexes",
	"compressed inverted lists",
	"bitmap and inverted list compression compression",
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quiet
	}
	return New(buildIndex(t, testDocs...), cfg)
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	return request(t, h, http.MethodGet, path)
}

func request(t *testing.T, h http.Handler, method, path string) (*httptest.ResponseRecorder, map[string]interface{}) {
	t.Helper()
	req := httptest.NewRequest(method, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]interface{}
	if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
		t.Fatalf("%s %s: bad JSON %q: %v", method, path, rec.Body.String(), err)
	}
	return rec, body
}

func TestSearchAnd(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec, body := get(t, h, "/search?q=compressed+bitmap&mode=and")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	docs := body["docs"].([]interface{})
	if len(docs) != 1 || docs[0].(float64) != 0 {
		t.Fatalf("docs = %v", docs)
	}
}

func TestSearchOrAndDefaults(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	_, body := get(t, h, "/search?q=lists+indexes&mode=or")
	if body["matches"].(float64) != 2 {
		t.Fatalf("matches = %v", body["matches"])
	}
	// Default mode is AND.
	_, body = get(t, h, "/search?q=compressed")
	if body["mode"] != "and" || body["matches"].(float64) != 2 {
		t.Fatalf("default mode body = %v", body)
	}
}

func TestSearchTopK(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec, body := get(t, h, "/search?q=compression&mode=topk&k=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	ranked := body["ranked"].([]interface{})
	if len(ranked) != 1 {
		t.Fatalf("ranked = %v", ranked)
	}
	top := ranked[0].(map[string]interface{})
	if top["Doc"].(float64) != 2 || top["Score"].(float64) != 2 {
		t.Fatalf("top = %v", top)
	}
}

func TestSearchErrors(t *testing.T) {
	h := newTestServer(t, Config{MaxQueryTerms: 4, MaxK: 50}).Handler()
	for _, path := range []string{
		"/search",                      // missing q
		"/search?q=x&mode=banana",      // bad mode
		"/search?q=x&mode=topk&k=zero", // bad k
		"/search?q=...&mode=and",       // tokenizes to nothing
		"/search?q=a+b+c+d+e",          // more than MaxQueryTerms terms
		"/search?q=x&mode=topk&k=51",   // k over MaxK
	} {
		rec, _ := get(t, h, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

func TestURLTooLong(t *testing.T) {
	h := newTestServer(t, Config{MaxURLBytes: 64}).Handler()
	rec, _ := get(t, h, "/search?q="+strings.Repeat("x", 100))
	if rec.Code != http.StatusRequestURITooLong {
		t.Fatalf("status %d, want 414", rec.Code)
	}
}

func TestStats(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	rec, body := get(t, h, "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if body["documents"].(float64) != 3 || body["terms"].(float64) == 0 {
		t.Fatalf("stats = %v", body)
	}
	if body["reloads"].(float64) != 0 || body["ready"].(bool) {
		t.Fatalf("serving gauges = %v", body)
	}
	// The boot snapshot is generation 1; /stats must name it so an
	// observer can tell which index version answered.
	if body["generation"].(float64) != 1 {
		t.Fatalf("boot generation = %v, want 1", body["generation"])
	}
}

func TestProbes(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	rec, _ := get(t, h, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	// Not serving yet: readyz says starting.
	rec, body := get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || body["status"] != "starting" {
		t.Fatalf("readyz before start = %d %v", rec.Code, body)
	}
	s.ready.Store(true)
	rec, _ = get(t, h, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz while serving = %d", rec.Code)
	}
	s.draining.Store(true)
	rec, body = get(t, h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("readyz while draining = %d %v", rec.Code, body)
	}
}

func TestReloadSwapsAtomically(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// GET is not allowed.
	rec, _ := get(t, h, "/reload")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload = %d, want 405", rec.Code)
	}
	// No loader configured.
	rec, body := request(t, h, http.MethodPost, "/reload")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("POST without loader = %d %v", rec.Code, body)
	}

	bigger := buildIndex(t, append(testDocs, "two extra", "documents here")...)
	s.SetLoader(func() (*index.Index, error) { return bigger, nil })
	rec, body = request(t, h, http.MethodPost, "/reload")
	if rec.Code != http.StatusOK || body["docs"].(float64) != 5 {
		t.Fatalf("POST /reload = %d %v", rec.Code, body)
	}
	if s.Index() != bigger || s.Reloads() != 1 {
		t.Fatal("reload did not swap the served index")
	}
	if body["generation"].(float64) != 2 || s.Generation() != 2 {
		t.Fatalf("generation after one swap = %v / %d, want 2", body["generation"], s.Generation())
	}
	// The new index serves immediately.
	_, body = get(t, h, "/stats")
	if body["documents"].(float64) != 5 {
		t.Fatalf("stats after reload = %v", body)
	}
	if body["generation"].(float64) != 2 {
		t.Fatalf("stats generation after reload = %v, want 2", body["generation"])
	}
}

func TestReloadRollsBackOnError(t *testing.T) {
	s := newTestServer(t, Config{})
	before := s.Index()
	s.SetLoader(func() (*index.Index, error) { return nil, fmt.Errorf("disk: %w", errors.New("checksum mismatch")) })
	if err := s.Reload(); err == nil {
		t.Fatal("reload with failing loader succeeded")
	}
	if s.Index() != before || s.Reloads() != 0 {
		t.Fatal("failed reload must keep the old index in place")
	}
	if s.Generation() != 1 {
		t.Fatalf("failed reload bumped generation to %d; the old snapshot is still answering", s.Generation())
	}
	// Nil index from a buggy loader is also a rollback, not a swap.
	s.SetLoader(func() (*index.Index, error) { return nil, nil })
	if err := s.Reload(); err == nil {
		t.Fatal("nil index accepted")
	}
	if s.Index() != before {
		t.Fatal("nil index replaced the served index")
	}
}

// TestConcurrentSearchReload is the -race acceptance check: searches
// and hot reloads running in parallel must all succeed with no data
// race, because each request works on one atomic snapshot.
func TestConcurrentSearchReload(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 128})
	flip := false
	s.SetLoader(func() (*index.Index, error) {
		flip = !flip // guarded by the reload mutex
		// A fresh index per reload: Reload attaches the cache to what the
		// loader returns, which must not be an index still in flight.
		if flip {
			return buildIndex(t, append(testDocs, "alternate snapshot")...), nil
		}
		return buildIndex(t, testDocs...), nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				resp, err := http.Get(ts.URL + "/search?q=compressed&mode=topk&k=3")
				if err != nil {
					t.Errorf("search: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("search status %d during reload churn", resp.StatusCode)
					return
				}
			}
		}()
	}
	for r := 0; r < 20; r++ {
		if err := s.Reload(); err != nil {
			t.Fatalf("reload %d: %v", r, err)
		}
	}
	wg.Wait()
	if s.Reloads() != 20 {
		t.Fatalf("reloads = %d, want 20", s.Reloads())
	}
}

// TestReloadInvalidatesPostingCache: entries decoded against the old
// index generation are dropped on hot reload, and the replacement index
// repopulates the same shared cache under its own generation.
func TestReloadInvalidatesPostingCache(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	// Top-k queries go through the decoded-posting cache; warm it.
	rec, _ := get(t, h, "/search?q=compressed+bitmap&mode=topk")
	if rec.Code != http.StatusOK {
		t.Fatalf("warm-up search = %d", rec.Code)
	}
	warm := s.CacheStats()
	if warm.Entries == 0 || warm.Misses == 0 {
		t.Fatalf("cache not populated by top-k query: %+v", warm)
	}

	s.SetLoader(func() (*index.Index, error) { return buildIndex(t, testDocs...), nil })
	if err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	if st := s.CacheStats(); st.Entries != 0 {
		t.Fatalf("old-generation entries survived reload: %+v", st)
	}

	// The new index fills the cache again and serves hits from it.
	for i := 0; i < 2; i++ {
		if rec, _ := get(t, h, "/search?q=compressed+bitmap&mode=topk"); rec.Code != http.StatusOK {
			t.Fatalf("post-reload search = %d", rec.Code)
		}
	}
	after := s.CacheStats()
	if after.Entries == 0 || after.Hits <= warm.Hits {
		t.Fatalf("cache not repopulated after reload: %+v", after)
	}

	// A disabled cache keeps the endpoints working with zero stats.
	off := New(buildIndex(t, testDocs...), Config{CacheBytes: -1, Logger: quiet})
	if rec, _ := get(t, off.Handler(), "/search?q=compressed&mode=topk"); rec.Code != http.StatusOK {
		t.Fatalf("cacheless search = %d", rec.Code)
	}
	if st := off.CacheStats(); st != (index.CacheStats{}) {
		t.Fatalf("disabled cache reported activity: %+v", st)
	}
}

// TestTwoConsecutiveReloadsInvalidateCache: the cache generation logic
// must hold up across back-to-back hot swaps, not just one. Three index
// versions map the same term to different documents; after each reload
// the served answer must come from the new index, never from a decode
// cached under an earlier generation. Concurrent queriers run
// throughout (exercised under -race in CI) and every response they see
// must match exactly one complete version — no half-swapped or
// cross-generation results. The middle generation is loaded through the
// lazy mmap-backed BVIX3 path to prove cache invalidation composes with
// zero-copy open; superseded snapshots are not Closed, mirroring how
// bvserve leaves old mappings to the kernel.
func TestTwoConsecutiveReloadsInvalidateCache(t *testing.T) {
	versions := [][]string{
		{"marker one", "filler text"},
		{"filler text", "marker two"},
		{"filler text", "filler again", "marker three"},
	}
	wantDoc := []float64{0, 1, 2} // where "marker" lives in each version

	s := New(buildIndex(t, versions[0]...), Config{Logger: quiet})
	h := s.Handler()

	markerDoc := func() float64 {
		t.Helper()
		rec, body := get(t, h, "/search?q=marker&mode=topk")
		if rec.Code != http.StatusOK {
			t.Fatalf("search = %d", rec.Code)
		}
		docs := body["ranked"].([]interface{})
		if len(docs) != 1 {
			t.Fatalf("marker docs = %v", docs)
		}
		return docs[0].(map[string]interface{})["Doc"].(float64)
	}

	// Warm the v0 generation: second query must be a cache hit.
	markerDoc()
	if got := markerDoc(); got != wantDoc[0] {
		t.Fatalf("v0 marker doc = %v, want %v", got, wantDoc[0])
	}
	if st := s.CacheStats(); st.Hits == 0 {
		t.Fatalf("v0 queries never hit the cache: %+v", st)
	}

	// Queriers hammer the endpoint across both swaps. Each response must
	// be exactly one version's answer — a stale cached decode would show
	// up as a marker doc ID that no longer exists in the served index.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=marker&mode=topk", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("concurrent search = %d", rec.Code)
					return
				}
				var body struct{ Ranked []struct{ Doc float64 } }
				if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
					t.Errorf("concurrent search body: %v", err)
					return
				}
				if len(body.Ranked) != 1 || (body.Ranked[0].Doc != 0 && body.Ranked[0].Doc != 1 && body.Ranked[0].Doc != 2) {
					t.Errorf("cross-generation result: %v", body.Ranked)
					return
				}
			}
		}()
	}

	gens := []uint64{s.Index().Generation()}
	for i, docs := range [][]string{versions[1], versions[2]} {
		docs := docs
		lazy := i == 0 // load v1 via the mmap-backed zero-copy path
		s.SetLoader(func() (*index.Index, error) {
			if !lazy {
				return buildIndex(t, docs...), nil
			}
			path := filepath.Join(t.TempDir(), "v.idx")
			f, err := os.Create(path)
			if err != nil {
				return nil, err
			}
			if _, err := buildIndex(t, docs...).WriteTo(f); err != nil {
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			return index.OpenFile(path)
		})
		if err := s.Reload(); err != nil {
			t.Fatal(err)
		}
		gens = append(gens, s.Index().Generation())
		// Cold read from the new generation, then a warm one: both must
		// answer from the freshly swapped index.
		for pass := 0; pass < 2; pass++ {
			if got := markerDoc(); got != wantDoc[i+1] {
				t.Fatalf("after reload %d pass %d: marker doc = %v, want %v", i+1, pass, got, wantDoc[i+1])
			}
		}
	}
	close(stop)
	wg.Wait()

	if gens[0] == gens[1] || gens[1] == gens[2] || gens[0] == gens[2] {
		t.Fatalf("generations not distinct across reloads: %v", gens)
	}
	if got := s.Reloads(); got != 2 {
		t.Fatalf("Reloads = %d, want 2", got)
	}
	// Only the final generation may own cache entries.
	st := s.CacheStats()
	if st.Entries == 0 {
		t.Fatalf("final generation has no cached decodes: %+v", st)
	}
}

// TestStatsExposesPostingCache: /stats carries the cache counters.
func TestStatsExposesPostingCache(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	get(t, h, "/search?q=compressed+bitmap&mode=topk")
	_, body := get(t, h, "/stats")
	pc, ok := body["postingCache"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats missing postingCache: %v", body)
	}
	if pc["entries"].(float64) == 0 {
		t.Fatalf("postingCache shows no entries after top-k query: %v", pc)
	}
}
