package shard

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// sameAnswer compares two routed answers field by field; an empty list
// and no list are the same answer on the wire.
func sameAnswer(a, b Merged) bool {
	if (a.TopK == nil) != (b.TopK == nil) || (a.TopK != nil && *a.TopK != *b.TopK) {
		return false
	}
	return slices.Equal(a.Docs, b.Docs) && slices.Equal(a.Ranked, b.Ranked) &&
		a.Partial == b.Partial && slices.Equal(a.Degraded, b.Degraded) && a.Shards == b.Shards
}

// TestHTTPBackendIdentity decodes real shard bodies: a router over two
// bvserve fronts (HTTPBackend) must answer exactly as a router over the
// same two shard indexes in process (IndexBackend) — for AND, OR and
// top-k, for an empty answer, for a term only one shard holds, and with
// one front closed.
func TestHTTPBackendIdentity(t *testing.T) {
	parts, err := Partition(testCorpus(211), 2)
	if err != nil {
		t.Fatal(err)
	}
	quiet := log.New(io.Discard, "", 0)
	local := make([][]Backend, 2)
	remote := make([][]Backend, 2)
	fronts := make([]*httptest.Server, 2)
	for s, part := range parts {
		idx := buildIndex(t, part)
		local[s] = []Backend{&IndexBackend{Idx: idx}}
		fronts[s] = httptest.NewServer(server.New(idx, server.Config{Logger: quiet}).Handler())
		t.Cleanup(fronts[s].Close)
		remote[s] = []Backend{&HTTPBackend{Base: fronts[s].URL}}
	}
	cfg := RouterConfig{ShardTimeout: 2 * time.Second}
	routers := func() (*Router, *Router) {
		t.Helper()
		l, err := NewRouter(cfg, local)
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRouter(cfg, remote)
		if err != nil {
			t.Fatal(err)
		}
		return l, r
	}

	// "even" lives only on shard 0 (even global ids); "missing" nowhere.
	queries := [][]string{{"common"}, {"even"}, {"rare"}, {"even", "third"}, {"common", "five", "rare"}, {"missing"}}
	var reqs []Request
	for _, q := range queries {
		reqs = append(reqs, Request{Mode: "and", Terms: q}, Request{Mode: "or", Terms: q})
		for _, k := range []int{1, 7, 1000} {
			reqs = append(reqs, Request{Mode: "topk", Terms: q, K: k})
		}
	}
	check := func(phase string, l, r *Router) {
		t.Helper()
		ctx := context.Background()
		for _, req := range reqs {
			want, err := l.Search(ctx, req)
			if err != nil {
				t.Fatalf("%s %+v: in process: %v", phase, req, err)
			}
			got, err := r.Search(ctx, req)
			if err != nil {
				t.Fatalf("%s %+v: over HTTP: %v", phase, req, err)
			}
			if !sameAnswer(got, want) {
				t.Fatalf("%s %+v: over HTTP %+v, in process %+v", phase, req, got, want)
			}
		}
	}

	l, r := routers()
	check("full", l, r)
	if a, err := r.Search(context.Background(), Request{Mode: "or", Terms: []string{"missing"}}); err != nil || len(a.Docs) != 0 {
		t.Fatalf("empty answer: %+v %v", a, err)
	}

	fronts[1].Close()
	local[1] = []Backend{errBackend{}}
	l, r = routers()
	check("shard 1 down", l, r)
	if a, _ := r.Search(context.Background(), Request{Mode: "or", Terms: []string{"common"}}); !a.Partial || !slices.Equal(a.Degraded, []int{1}) {
		t.Fatalf("closed front: partial=%v degraded=%v, want shard 1 degraded", a.Partial, a.Degraded)
	}
}

// TestHTTPBackendRefusesOverLimitBody: a body declared larger than the
// limit is refused before it is read, with an error naming the limit,
// instead of being cut off and misreported as malformed JSON.
func TestHTTPBackendRefusesOverLimitBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(maxSearchBody+1))
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, `{"query":["x"],"mode":"or","docs":[1`)
	}))
	defer ts.Close()
	_, err := (&HTTPBackend{Base: ts.URL}).Search(context.Background(), Request{Mode: "or", Terms: []string{"x"}})
	if want := fmt.Sprintf("exceeds the %d-byte limit", maxSearchBody); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("err = %v, want it to name the limit (%q)", err, want)
	}
}

// TestReadBody covers both framings: declared lengths are read into one
// exact buffer and must arrive whole; undeclared ones are read up to the
// limit, and one byte more is an error, not a truncation.
func TestReadBody(t *testing.T) {
	for _, tc := range []struct {
		body           string
		length, limit  int64
		want, errSubst string
	}{
		{"0123456789", 10, 10, "0123456789", ""},
		{"0123456789", -1, 10, "0123456789", ""},
		{"", 0, 10, "", ""},
		{"0123456789", 11, 10, "", "exceeds the 10-byte limit"},
		{"0123456789", -1, 9, "", "exceeds the 9-byte limit"},
		{"01234", 10, 64, "", "unexpected EOF"},
	} {
		got, err := readBody(strings.NewReader(tc.body), tc.length, tc.limit)
		if tc.errSubst != "" {
			if err == nil || !strings.Contains(err.Error(), tc.errSubst) {
				t.Errorf("%+v: err = %v, want %q", tc, err, tc.errSubst)
			}
			continue
		}
		if err != nil || string(got) != tc.want {
			t.Errorf("%+v: got %q, %v", tc, got, err)
		}
	}
}
