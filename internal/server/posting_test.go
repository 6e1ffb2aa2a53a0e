package server_test

import (
	"bytes"
	"context"
	"encoding"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/shard"
)

// frontQueries are /search requests with the Request each one parses to.
var frontQueries = []struct {
	path string
	req  index.Request
}{
	{"/search?q=common", index.Request{Mode: "and", Terms: []string{"common"}}},
	{"/search?q=even+third&mode=and", index.Request{Mode: "and", Terms: []string{"even", "third"}}},
	{"/search?q=even+rare&mode=or", index.Request{Mode: "or", Terms: []string{"even", "rare"}}},
	{"/search?q=absent&mode=or", index.Request{Mode: "or", Terms: []string{"absent"}}},
	{"/search?q=absent+common&mode=and", index.Request{Mode: "and", Terms: []string{"absent", "common"}}},
	{"/search?q=rare+third+common&mode=topk&k=7", index.Request{Mode: "topk", Terms: []string{"rare", "third", "common"}, K: 7}},
	{"/search?q=even&mode=topk&k=3", index.Request{Mode: "topk", Terms: []string{"even"}, K: 3}},
}

// getAccept is get with an Accept header.
func getAccept(h http.Handler, path, accept string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	r.Header.Set("Accept", accept)
	h.ServeHTTP(rec, r)
	return rec
}

// TestSearchJSONUnlessPostingAsked: a /search without the posting
// Accept header is, on every front, exactly AppendJSON of the answer
// its Searcher gives, as JSON and without Vary. With the header, an
// and/or answer is the posting of the same docids, with its length and
// Vary: Accept; a top-k answer and every refusal stay the JSON bytes.
func TestSearchJSONUnlessPostingAsked(t *testing.T) {
	fronts, searchers := threeFronts(t)
	for name, h := range fronts {
		for _, q := range frontQueries {
			ans, err := searchers[name].Search(context.Background(), q.req)
			if err != nil {
				t.Fatal(err)
			}
			matches := len(ans.Docs)
			if q.req.Mode == "topk" {
				matches = len(ans.Ranked)
			}
			want := (&server.SearchResponse{
				Query: q.req.Terms, Mode: q.req.Mode, Docs: ans.Docs, Ranked: ans.Ranked,
				Matches: matches, TopK: ans.TopK, Shards: ans.Shards,
			}).AppendJSON(nil)
			rec := get(h, q.path)
			if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s %s: %d\n%s\nwant AppendJSON\n%s", name, q.path, rec.Code, rec.Body, want)
			}
			if ct, vary := rec.Header().Get("Content-Type"), rec.Header().Get("Vary"); ct != "application/json" || vary != "" {
				t.Errorf("%s %s: Content-Type %q Vary %q, want JSON and no Vary", name, q.path, ct, vary)
			}

			rec = getAccept(h, q.path, server.PostingContentType)
			if q.req.Mode == "topk" {
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) ||
					rec.Header().Get("Content-Type") != "application/json" {
					t.Errorf("%s %s asking for a posting: %d %q\n%s", name, q.path, rec.Code, rec.Header().Get("Content-Type"), rec.Body)
				}
				continue
			}
			hdr := rec.Header()
			if rec.Code != http.StatusOK || hdr.Get("Content-Type") != server.PostingContentType ||
				hdr.Get("Vary") != "Accept" || hdr.Get("Content-Length") != strconv.Itoa(rec.Body.Len()) {
				t.Fatalf("%s %s asking for a posting: %d %v", name, q.path, rec.Code, hdr)
			}
			docs, err := server.ParsePosting(rec.Body.Bytes(), len(ans.Docs))
			if err != nil || !slices.Equal(docs, ans.Docs) {
				t.Fatalf("%s %s: posting holds %v (%v), want %v", name, q.path, docs, err, ans.Docs)
			}
		}

		for _, path := range []string{"/search?q=", "/search?q=a+b+c+d+e", "/search?q=common&mode=bogus", "/search?q=common&mode=topk&k=51"} {
			plain, asked := get(h, path), getAccept(h, path, "text/html, "+server.PostingContentType+";v=1")
			if asked.Code != http.StatusBadRequest || asked.Code != plain.Code || asked.Body.String() != plain.Body.String() ||
				asked.Header().Get("Content-Type") != "application/json" {
				t.Errorf("%s %s: asking for a posting answered %d %q %s, without %d %s",
					name, path, asked.Code, asked.Header().Get("Content-Type"), asked.Body, plain.Code, plain.Body)
			}
		}
	}
}

// TestPartialAnswerStaysJSON: a router front that lost a shard answers
// JSON, which alone can say the answer is partial, even to a request
// that asks for a posting.
func TestPartialAnswerStaysJSON(t *testing.T) {
	router := routerOver(t, &shard.IndexBackend{Idx: buildStatic(t, frontDocs())}, deadBackend{})
	h := server.NewFront(router, server.Config{Logger: quiet}).Handler()
	rec := getAccept(h, "/search?q=common&mode=or", server.PostingContentType)
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" ||
		!strings.Contains(rec.Body.String(), `"partial":true,"degradedShards":[1]`) {
		t.Fatalf("partial answer asking for a posting: %d %q %s", rec.Code, rec.Header().Get("Content-Type"), rec.Body)
	}
}

// deadBackend is a shard replica that always fails.
type deadBackend struct{}

func (deadBackend) Search(context.Context, index.Request) (index.Answer, error) {
	return index.Answer{}, index.ErrUnavailable
}
func (deadBackend) Health(context.Context) error { return index.ErrUnavailable }
func (deadBackend) Name() string                 { return "dead" }

// TestPostingRoundTrip: MarshalPosting writes the MarshalBinary bytes
// of a Roaring posting, and ParsePosting reads them back, for an empty
// answer, sparse and dense ones and one in every container kind.
func TestPostingRoundTrip(t *testing.T) {
	dense := make([]uint32, 0, 70000)
	for d := uint32(1 << 16); len(dense) < cap(dense); d += 1 + d%2 {
		dense = append(dense, d)
	}
	for _, docs := range [][]uint32{{}, {0}, {7, 1 << 20, 1<<32 - 1}, dense} {
		body, err := server.MarshalPosting(docs)
		if err != nil {
			t.Fatal(err)
		}
		p, err := bitmap.Roaring{}.Compress(docs)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := p.(encoding.BinaryMarshaler).MarshalBinary()
		if !bytes.Equal(body, want) {
			t.Fatalf("%d docids: MarshalPosting is not the Roaring MarshalBinary bytes", len(docs))
		}
		got, err := server.ParsePosting(body, len(docs))
		if err != nil || !slices.Equal(got, docs) {
			t.Fatalf("%d docids: round trip %d docids, %v", len(docs), len(got), err)
		}
	}
	if _, err := server.MarshalPosting([]uint32{5, 3}); err == nil {
		t.Fatal("MarshalPosting accepted unsorted docids")
	}
}

// TestParsePostingRefuses: a body that is not exactly one Roaring
// posting within the docid cap is an error, never a panic and never a
// partial answer.
func TestParsePostingRefuses(t *testing.T) {
	docs := []uint32{1, 2, 3, 70000, 1 << 20}
	good, err := server.MarshalPosting(docs)
	if err != nil {
		t.Fatal(err)
	}
	wah, err := bitmap.NewWAH().Compress(docs)
	if err != nil {
		t.Fatal(err)
	}
	wahBlob, _ := wah.(encoding.BinaryMarshaler).MarshalBinary()
	huge := core.PutHeader(nil, core.TagRoaring, 1<<31)
	for _, tc := range []struct {
		name string
		body []byte
		cap  int
	}{
		{"empty", nil, 10},
		{"WAH tag", wahBlob, 10},
		{"truncated", good[:len(good)-1], 10},
		{"header only", good[:5], 10},
		{"trailing bytes", append(slices.Clip(good), 0), 10},
		{"over the cap", good, len(docs) - 1},
		{"header over the cap", append(huge, 0, 0, 0, 0), 1 << 20},
	} {
		got, err := server.ParsePosting(tc.body, tc.cap)
		if err == nil || got != nil {
			t.Errorf("%s: accepted, %d docids", tc.name, len(got))
		}
	}
}
