package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/codecs"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/shard"
)

var quiet = log.New(io.Discard, "", 0)

func frontDocs() []string {
	docs := make([]string, 40)
	for i := range docs {
		docs[i] = "common"
		if i%2 == 0 {
			docs[i] += " even even"
		}
		if i%3 == 0 {
			docs[i] += " third"
		}
		if i%7 == 0 {
			docs[i] += " rare rare rare"
		}
	}
	return docs
}

func buildStatic(t *testing.T, docs []string) *index.Index {
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

func routerOver(t *testing.T, backends ...shard.Backend) *shard.Router {
	t.Helper()
	replicas := make([][]shard.Backend, len(backends))
	for s, b := range backends {
		replicas[s] = []shard.Backend{b}
	}
	r, err := shard.NewRouter(shard.RouterConfig{}, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// threeFronts serves the same documents, under the same docids and the
// same limits, from a static server, a live server (half the documents
// sealed, half still mutable) and a router front over two in-process
// shards. It also returns the Searcher behind each front.
func threeFronts(t *testing.T) (map[string]http.Handler, map[string]index.Searcher) {
	t.Helper()
	docs := frontDocs()
	cfg := server.Config{Logger: quiet, MaxQueryTerms: 4, MaxK: 50, MaxURLBytes: 512}

	l, err := index.OpenLive(t.TempDir(), index.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	for i, d := range docs {
		if _, err := l.Add(d); err != nil {
			t.Fatal(err)
		}
		if i == len(docs)/2 {
			if err := l.Seal(); err != nil {
				t.Fatal(err)
			}
		}
	}

	parts, err := shard.Partition(docs, 2)
	if err != nil {
		t.Fatal(err)
	}
	router := routerOver(t,
		&shard.IndexBackend{Idx: buildStatic(t, parts[0])},
		&shard.IndexBackend{Idx: buildStatic(t, parts[1])})

	static := buildStatic(t, docs)
	return map[string]http.Handler{
			"static": server.New(static, cfg).Handler(),
			"live":   server.NewLive(l, cfg).Handler(),
			"router": server.NewFront(router, cfg).Handler(),
		}, map[string]index.Searcher{
			"static": static,
			"live":   l,
			"router": router,
		}
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestOneTableThreeFronts: one /search handler means one behaviour. The
// same requests go to all three fronts; refusals must agree byte for
// byte and answers document for document.
func TestOneTableThreeFronts(t *testing.T) {
	fronts, _ := threeFronts(t)

	malformed := []struct {
		name, path string
		status     int
		errBody    string
	}{
		{"empty q", "/search?q=&mode=and", 400, "missing or empty q parameter"},
		{"too many terms", "/search?q=a+b+c+d+e", 400, "query has 5 terms, limit is 4"},
		{"bogus mode", "/search?q=common&mode=bogus", 400, "mode must be and | or | topk"},
		{"k=0", "/search?q=common&mode=topk&k=0", 400, "bad k parameter"},
		{"k over limit", "/search?q=common&mode=topk&k=51", 400, "k=51 exceeds limit 50"},
		{"over-long URI", "/search?q=" + strings.Repeat("x", 600), 414, "request URI exceeds 512 bytes"},
	}
	for _, tc := range malformed {
		want := fmt.Sprintf("{\"error\":%q}\n", tc.errBody)
		for name, h := range fronts {
			rec := get(h, tc.path)
			if rec.Code != tc.status || rec.Body.String() != want {
				t.Errorf("%s on %s: %d %q, want %d %q", tc.name, name, rec.Code, rec.Body, tc.status, want)
			}
		}
	}

	for _, path := range []string{
		"/search?q=common",
		"/search?q=even+third&mode=and",
		"/search?q=even+rare&mode=or",
		"/search?q=absent&mode=or",
		"/search?q=even+rare&mode=topk",
		"/search?q=rare+third+common&mode=topk&k=7",
		"/search?q=common&mode=topk&k=50",
		"/search?q=even&mode=topk&k=3",
	} {
		var want server.SearchResponse
		for _, name := range []string{"static", "live", "router"} {
			rec := get(fronts[name], path)
			var got server.SearchResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("%s on %s: %d %s (%v)", path, name, rec.Code, rec.Body, err)
			}
			if got.Partial || (got.Mode == "topk") != (got.TopK != nil) {
				t.Errorf("%s on %s: partial=%v topk=%v", path, name, got.Partial, got.TopK)
			}
			if name == "static" {
				want = got
				continue
			}
			if got.Mode != want.Mode || got.Matches != want.Matches ||
				!reflect.DeepEqual(got.Query, want.Query) ||
				!reflect.DeepEqual(got.Docs, want.Docs) || !reflect.DeepEqual(got.Ranked, want.Ranked) {
				t.Errorf("%s: %s answered %+v, static %+v", path, name, got, want)
			}
		}
	}

	// The live front ranks its sealed and its mutable segment with
	// Block-Max-WAND and reports both segments' work: 2 lists each,
	// holding between them every posting the static index holds.
	var live, static server.SearchResponse
	for _, f := range []struct {
		name string
		into *server.SearchResponse
	}{{"live", &live}, {"static", &static}} {
		rec := get(fronts[f.name], "/search?q=common+even&mode=topk")
		if err := json.Unmarshal(rec.Body.Bytes(), f.into); err != nil || rec.Code != http.StatusOK || f.into.TopK == nil {
			t.Fatalf("%s topk: %d %s (%v)", f.name, rec.Code, rec.Body, err)
		}
	}
	if live.TopK.Mode != "bmw" || live.TopK.Lists != 4 || live.TopK.Postings != static.TopK.Postings {
		t.Errorf("live topk stats %+v, want bmw over 4 lists and the static index's %d postings", live.TopK, static.TopK.Postings)
	}
}

// panicBackend is a shard replica whose Search panics.
type panicBackend struct{}

func (panicBackend) Search(context.Context, index.Request) (index.Answer, error) {
	panic("backend bug")
}
func (panicBackend) Health(context.Context) error { return nil }
func (panicBackend) Name() string                 { return "panics" }

// TestRouterFrontSurvivesBackendPanic: a Backend panics on the router's
// attempt goroutine, where no HTTP recovery reaches. The router relays
// it to the request's goroutine, the front answers 500, and the process
// — this test binary — keeps serving.
func TestRouterFrontSurvivesBackendPanic(t *testing.T) {
	router := routerOver(t, &shard.IndexBackend{Idx: buildStatic(t, frontDocs())}, panicBackend{})
	ts := httptest.NewServer(server.NewFront(router, server.Config{Logger: quiet}).Handler())
	defer ts.Close()

	for _, step := range []struct {
		path   string
		status int
	}{{"/search?q=common", 500}, {"/healthz", 200}, {"/search?q=common", 500}, {"/stats", 200}} {
		resp, err := http.Get(ts.URL + step.path)
		if err != nil {
			t.Fatalf("GET %s: %v", step.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != step.status {
			t.Fatalf("GET %s: %d %s, want %d", step.path, resp.StatusCode, body, step.status)
		}
		if step.status == 500 && string(body) != "{\"error\":\"internal server error\"}\n" {
			t.Fatalf("GET %s: body %q", step.path, body)
		}
	}
}
