package shard

import (
	"context"
	"encoding"
	"errors"
	"io"
	"log"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/server"
)

// contentTypes records the Content-Type of every /search reply a front
// writes, so a test can tell which encoding crossed the hop.
type contentTypes struct {
	mu   sync.Mutex
	seen map[string]int
}

func (c *contentTypes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.seen == nil {
			c.seen = map[string]int{}
		}
		c.seen[r.URL.Query().Get("mode")+" "+w.Header().Get("Content-Type")]++
	})
}

// TestHTTPBackendPostingAndFallback: against bvserve fronts a router's
// and/or answers cross the hop as postings and its top-k answers as
// JSON; against fronts that drop the Accept header, as an older bvserve
// does not know it, every answer is JSON. Both routers answer exactly
// as the in-process one.
func TestHTTPBackendPostingAndFallback(t *testing.T) {
	parts, err := Partition(testCorpus(211), 2)
	if err != nil {
		t.Fatal(err)
	}
	quiet := log.New(io.Discard, "", 0)
	stripAccept := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			r.Header.Del("Accept")
			h.ServeHTTP(w, r)
		})
	}
	var reqs []Request
	for _, q := range [][]string{{"common"}, {"even"}, {"rare"}, {"even", "third"}, {"common", "five", "rare"}, {"missing"}} {
		reqs = append(reqs, Request{Mode: "and", Terms: q}, Request{Mode: "or", Terms: q}, Request{Mode: "topk", Terms: q, K: 7})
	}
	for _, tc := range []struct {
		name  string
		strip bool
		want  map[string]int
	}{
		{"posting", false, map[string]int{"and " + server.PostingContentType: 6, "or " + server.PostingContentType: 6, "topk application/json": 6}},
		{"old front", true, map[string]int{"and application/json": 6, "or application/json": 6, "topk application/json": 6}},
	} {
		local := make([][]Backend, 2)
		remote := make([][]Backend, 2)
		var seen [2]contentTypes
		for s, part := range parts {
			idx := buildIndex(t, part)
			local[s] = []Backend{&IndexBackend{Idx: idx}}
			h := server.New(idx, server.Config{Logger: quiet}).Handler()
			if tc.strip {
				h = stripAccept(h)
			}
			ts := httptest.NewServer(seen[s].wrap(h))
			t.Cleanup(ts.Close)
			remote[s] = []Backend{&HTTPBackend{Base: ts.URL}}
		}
		l, err := NewRouter(RouterConfig{}, local)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(RouterConfig{}, remote)
		if err != nil {
			t.Fatal(err)
		}
		for _, req := range reqs {
			want, err := l.Search(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Search(context.Background(), req)
			if err != nil || !sameAnswer(got, want) {
				t.Fatalf("%s %+v: over HTTP %+v (%v), in process %+v", tc.name, req, got, err, want)
			}
		}
		for s := range seen {
			if !maps.Equal(seen[s].seen, tc.want) {
				t.Errorf("%s: shard %d replied %v, want %v", tc.name, s, seen[s].seen, tc.want)
			}
		}
	}
}

// TestHTTPBackendPartialReplyFails: a replica that is itself a router
// and answers partial is a failed replica, not a complete answer. With
// no other replica the shard is degraded and listed; with a healthy
// second replica the router fails over to it and the answer is whole.
func TestHTTPBackendPartialReplyFails(t *testing.T) {
	partial := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"docs":[1],"matches":1,"partial":true}`)
	}))
	defer partial.Close()
	parts, err := Partition(testCorpus(60), 2)
	if err != nil {
		t.Fatal(err)
	}
	shard0 := &IndexBackend{Idx: buildIndex(t, parts[0])}
	shard1 := &IndexBackend{Idx: buildIndex(t, parts[1])}
	req := Request{Mode: "or", Terms: []string{"common"}}

	r, err := NewRouter(RouterConfig{}, [][]Backend{{shard0}, {&HTTPBackend{Base: partial.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Search(context.Background(), req)
	if err != nil || !got.Partial || !slices.Equal(got.Degraded, []int{1}) {
		t.Fatalf("partial replica: %+v (%v), want partial with shard 1 degraded", got, err)
	}

	r, err = NewRouter(RouterConfig{}, [][]Backend{{shard0}, {&HTTPBackend{Base: partial.URL}, shard1}})
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewRouter(RouterConfig{}, [][]Backend{{shard0}, {shard1}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := whole.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Pick-of-two chooses either replica first; every query must end
	// whole, through the failover when the partial one went first.
	for i := 0; i < 20; i++ {
		got, err := r.Search(context.Background(), req)
		if err != nil || !sameAnswer(got, want) {
			t.Fatalf("partial replica beside a healthy one: %+v (%v), want %+v", got, err, want)
		}
	}
}

// TestHTTPBackendRefusesBadPosting: a posting reply the backend cannot
// trust — another codec's tag, a truncated body, trailing bytes, more
// docids than a JSON body within the size limit could carry, a posting
// for a top-k request or under an error status — is a replica failure:
// an error that is not a BadRequest, and never a panic.
func TestHTTPBackendRefusesBadPosting(t *testing.T) {
	docs := []uint32{1, 5, 9, 70000}
	good, err := server.MarshalPosting(docs)
	if err != nil {
		t.Fatal(err)
	}
	wah, err := bitmap.NewWAH().Compress(docs)
	if err != nil {
		t.Fatal(err)
	}
	wahBlob, _ := wah.(encoding.BinaryMarshaler).MarshalBinary()
	// A well-formed posting that claims one docid over the cap: its
	// containers are never read.
	overCap := append(core.PutHeader(nil, core.TagRoaring, maxPostingDocs+1), 0, 0, 0, 0)

	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		mode   string
		why    string // in the error
	}{
		{"WAH tag", wahBlob, 200, "or", "tag 0x03"},
		{"truncated", good[:len(good)-3], 200, "or", "truncated"},
		{"empty", nil, 200, "and", "short header"},
		{"trailing bytes", append(slices.Clip(good), 1, 2), 200, "or", "2 bytes after the last Roaring container"},
		{"over the docid cap", overCap, 200, "or", "limit is"},
		{"posting for top-k", good, 200, "topk", "unexpected posting"},
		{"posting with 500", good, 500, "or", "unexpected posting"},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", server.PostingContentType)
			w.WriteHeader(tc.status)
			w.Write(tc.body)
		}))
		func() {
			defer ts.Close()
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("%s: panic %v", tc.name, p)
				}
			}()
			ans, err := (&HTTPBackend{Base: ts.URL}).Search(context.Background(), Request{Mode: tc.mode, Terms: []string{"x"}, K: 3})
			var bad *index.BadRequest
			if err == nil || errors.As(err, &bad) || ans.Docs != nil {
				t.Errorf("%s: answer %v, err %v; want a replica failure", tc.name, ans.Docs, err)
			} else if !strings.Contains(err.Error(), tc.why) {
				t.Errorf("%s: err %v, want it to say %q", tc.name, err, tc.why)
			}
		}()
	}

	// The same good body is accepted, so the refusals above are about
	// what each case changed.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Accept") != server.PostingContentType {
			t.Errorf("backend sent Accept %q", r.Header.Get("Accept"))
		}
		w.Header().Set("Content-Type", server.PostingContentType)
		w.Write(good)
	}))
	defer ts.Close()
	ans, err := (&HTTPBackend{Base: ts.URL}).Search(context.Background(), Request{Mode: "or", Terms: []string{"x"}})
	if err != nil || !slices.Equal(ans.Docs, docs) {
		t.Fatalf("good posting: %v %v", ans.Docs, err)
	}
}
