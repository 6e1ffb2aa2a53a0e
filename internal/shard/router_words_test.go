package shard

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"repro/internal/index"
	"repro/internal/ops"
	"repro/internal/server"
)

// fixedBackend answers every request with a fresh copy of docs: as
// words when the request takes words and asWords is set, else as
// docids — a shard whose replies mix JSON and postings.
type fixedBackend struct {
	docs    []uint32
	asWords bool
}

func (b fixedBackend) Search(ctx context.Context, req Request) (index.Answer, error) {
	if req.Words && b.asWords && len(b.docs) > 0 {
		return index.Answer{Words: toWords(b.docs)}, nil
	}
	return index.Answer{Docs: slices.Clone(b.docs)}, nil
}
func (fixedBackend) Health(ctx context.Context) error { return nil }
func (fixedBackend) Name() string                     { return "fixed" }

// toWords is sorted, distinct docs as words from docs[0]'s bucket.
func toWords(docs []uint32) *ops.Words {
	base := docs[0] &^ 0xffff
	w := &ops.Words{Base: base, W: make([]uint64, int((docs[len(docs)-1]-base)>>6)+1)}
	for _, d := range docs {
		d -= base
		w.W[d>>6] |= 1 << (d & 63)
	}
	return w
}

// localDocs is a sorted draw of about n/2 of the local ids lo + i·step
// for i in [0, n).
func localDocs(rng *rand.Rand, lo uint32, n int, step uint32) []uint32 {
	var docs []uint32
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			docs = append(docs, lo+uint32(i)*step)
		}
	}
	return docs
}

// mergedDocs is a boolean Merged's docids, whichever way they came.
func mergedDocs(m Merged) []uint32 {
	if m.Words != nil {
		return m.Words.Docs()
	}
	return m.Docs
}

// TestRouterWordsMergeMatchesUnion: with Request.Words set, the router's
// merge of n = 1, 2 and 3 shards equals UnionMany over the shards'
// GlobalID-mapped docids — whether each shard answers words or docids
// (a posting or a JSON reply), with a shard degraded, and with global
// ids up to 2^32−1 — and a dense merge comes back as words.
func TestRouterWordsMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3} {
		top := func(s int) uint32 { return (math.MaxUint32 - uint32(s)) / uint32(n) }
		for _, tc := range []struct {
			name    string
			lo      func(s int) uint32 // each shard's first local id
			span    int
			step    uint32
			asWords func(s int) bool
			dead    int // a degraded shard, or -1
			dense   bool
		}{
			{"words", func(int) uint32 { return 0 }, 150000, 1, func(int) bool { return true }, -1, true},
			{"mixed", func(int) uint32 { return 70000 }, 90000, 1, func(s int) bool { return s%2 == 0 }, -1, true},
			{"docids", func(int) uint32 { return 5 }, 40000, 1, func(int) bool { return false }, -1, true},
			{"top", func(s int) uint32 { return top(s) - 99999 }, 100000, 1, func(s int) bool { return s != 1 }, -1, true},
			{"degraded", func(int) uint32 { return 1 << 20 }, 80000, 1, func(int) bool { return true }, n - 1, true},
			{"sparse", func(s int) uint32 { return uint32(s) << 20 }, 400, 5000, func(int) bool { return true }, -1, false},
		} {
			if n == 1 && tc.dead >= 0 {
				continue
			}
			backends := make([][]Backend, n)
			var want []uint32
			for s := range backends {
				docs := localDocs(rng, tc.lo(s), tc.span, tc.step)
				if tc.name == "top" && docs[len(docs)-1] != top(s) {
					docs = append(docs, top(s))
				}
				if s == tc.dead {
					backends[s] = []Backend{errBackend{}}
					continue
				}
				backends[s] = []Backend{fixedBackend{docs, tc.asWords(s)}}
				for _, d := range docs {
					want = append(want, GlobalID(d, s, n))
				}
			}
			slices.Sort(want)
			r, err := NewRouter(RouterConfig{}, backends)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.Search(context.Background(), Request{Mode: "or", Terms: []string{"x"}, Words: true})
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, tc.name, err)
			}
			if (got.Words != nil) != tc.dense || (got.Words != nil && got.Docs != nil) {
				t.Fatalf("n=%d %s: words %v, docids %d, want words %v", n, tc.name, got.Words != nil, len(got.Docs), tc.dense)
			}
			if got.Words != nil && got.Words.Base&0xffff != 0 {
				t.Fatalf("n=%d %s: words based at %#x", n, tc.name, got.Words.Base)
			}
			if docs := mergedDocs(got); !slices.Equal(docs, want) {
				t.Fatalf("n=%d %s: merged %d docids, UnionMany %d", n, tc.name, len(docs), len(want))
			}
			if tc.name == "top" && want[len(want)-1] != math.MaxUint32 && n > 1 {
				t.Fatalf("n=%d top: the corpus does not reach 2^32-1", n)
			}
			if wantDead := tc.dead >= 0; got.Partial != wantDead || (wantDead && !slices.Equal(got.Degraded, []int{tc.dead})) {
				t.Fatalf("n=%d %s: partial %v degraded %v", n, tc.name, got.Partial, got.Degraded)
			}
		}
	}
}

// TestRouterWordsOverHTTP: a router over two real fronts — one that
// answers postings, one that drops the Accept header as an older
// bvserve does and answers JSON — merges a request that takes words
// exactly as the single index answers it, reading a dense posting reply
// as words; and the router's own front
// streams that answer with a Content-Length equal to its body.
func TestRouterWordsOverHTTP(t *testing.T) {
	corpus := testCorpus(30011)
	ref := buildIndex(t, corpus)
	parts, err := Partition(corpus, 2)
	if err != nil {
		t.Fatal(err)
	}
	quiet := log.New(io.Discard, "", 0)
	remote := make([][]Backend, 2)
	for s, part := range parts {
		h := server.New(buildIndex(t, part), server.Config{Logger: quiet}).Handler()
		if s == 1 {
			inner := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				r.Header.Del("Accept")
				inner.ServeHTTP(w, r)
			})
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		remote[s] = []Backend{&HTTPBackend{Base: ts.URL}}
	}
	// A dense posting reply becomes words without a docid list.
	if a, err := remote[0][0].Search(context.Background(), Request{Mode: "or", Terms: []string{"common"}, Words: true}); err != nil || a.Words == nil || a.Docs != nil {
		t.Fatalf("dense posting reply: words %v, %d docids (%v)", a.Words != nil, len(a.Docs), err)
	}
	r, err := NewRouter(RouterConfig{}, remote)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(server.NewFront(r, server.Config{Logger: quiet}).Handler())
	t.Cleanup(front.Close)
	for _, q := range [][]string{{"common"}, {"even", "third"}, {"five", "rare"}, {"rare"}, {"missing"}} {
		want, err := ref.Disjunctive(q...)
		if err != nil {
			t.Fatal(err)
		}
		for _, words := range []bool{true, false} {
			got, err := r.Search(context.Background(), Request{Mode: "or", Terms: q, Words: words})
			if err != nil || !slices.Equal(mergedDocs(got), want) || (!words && got.Words != nil) {
				t.Fatalf("%v words=%v: merged %d docids (%v), single index %d", q, words, len(mergedDocs(got)), err, len(want))
			}
		}
		resp, err := http.Get(fmt.Sprintf("%s/search?mode=or&q=%s", front.URL, q[0]+"+"+q[len(q)-1]))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if cl, _ := strconv.Atoi(resp.Header.Get("Content-Length")); cl != len(body) || resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: router front %s, Content-Length %d for %d bytes", q, resp.Status, cl, len(body))
		}
		var decoded struct{ Docs []uint32 }
		if err := json.Unmarshal(body, &decoded); err != nil || !slices.Equal(decoded.Docs, normalizeDocs(want)) {
			t.Fatalf("%v: router front answered %d docids (%v), want %d", q, len(decoded.Docs), err, len(want))
		}
	}
}

// normalizeDocs is docs as a JSON round trip leaves them: an empty
// answer has no "docs" member.
func normalizeDocs(docs []uint32) []uint32 {
	if len(docs) == 0 {
		return nil
	}
	return docs
}

// TestRouterRefusesWrappedLocalID: a replica answering a local docid
// that GlobalID would wrap onto another shard's document — here local
// 2^31+5 on a 2-shard router, where the largest is 2^31−1 — has failed,
// on the docid path and on the words path. Alone it degrades its shard;
// beside a healthy replica the router fails over to it, and the answer
// is whole.
func TestRouterRefusesWrappedLocalID(t *testing.T) {
	bad, err := server.MarshalPosting([]uint32{1, 7, 1<<31 + 5})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", server.PostingContentType)
		w.Write(bad)
	}))
	defer wrapped.Close()
	parts, err := Partition(testCorpus(400), 2)
	if err != nil {
		t.Fatal(err)
	}
	shard0 := &IndexBackend{Idx: buildIndex(t, parts[0])}
	shard1 := &IndexBackend{Idx: buildIndex(t, parts[1])}
	whole, err := NewRouter(RouterConfig{}, [][]Backend{{shard0}, {shard1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, words := range []bool{false, true} {
		req := Request{Mode: "or", Terms: []string{"common"}, Words: words}
		alone, err := NewRouter(RouterConfig{}, [][]Backend{{shard0}, {&HTTPBackend{Base: wrapped.URL}}})
		if err != nil {
			t.Fatal(err)
		}
		got, err := alone.Search(context.Background(), req)
		if err != nil || !got.Partial || !slices.Equal(got.Degraded, []int{1}) {
			t.Fatalf("words=%v: wrapping replica alone: %+v (%v), want shard 1 degraded", words, got, err)
		}
		if docs := mergedDocs(got); slices.Contains(docs, GlobalID(1<<31+5, 1, 2)) {
			t.Fatalf("words=%v: the wrapped docid %d was merged", words, GlobalID(1<<31+5, 1, 2))
		}
		want, err := whole.Search(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		beside, err := NewRouter(RouterConfig{}, [][]Backend{{shard0}, {&HTTPBackend{Base: wrapped.URL}, shard1}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			got, err := beside.Search(context.Background(), req)
			if err != nil || got.Partial || !slices.Equal(mergedDocs(got), mergedDocs(want)) {
				t.Fatalf("words=%v: wrapping replica beside a healthy one: %+v (%v)", words, got, err)
			}
		}
	}
}

// TestRouterFrontUnsortedReply: a replica whose JSON reply lists its
// docids out of order — nothing on the way checks them — still gets a
// router answer whose Content-Length is the number of bytes sent, and
// whose body is valid JSON holding every docid.
func TestRouterFrontUnsortedReply(t *testing.T) {
	unsorted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"query":["x"],"mode":"or","docs":[900,3,12000000,7,45,1000000000],"matches":6}`+"\n")
	}))
	defer unsorted.Close()
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"query":["x"],"mode":"or","matches":0}`+"\n")
	}))
	defer empty.Close()
	r, err := NewRouter(RouterConfig{}, [][]Backend{{&HTTPBackend{Base: unsorted.URL}}, {&HTTPBackend{Base: empty.URL}}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(server.NewFront(r, server.Config{Logger: log.New(io.Discard, "", 0)}).Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/search?mode=or&q=x")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if cl, _ := strconv.Atoi(resp.Header.Get("Content-Length")); cl != len(body) || resp.StatusCode != http.StatusOK {
		t.Fatalf("router front %s, Content-Length %d for %d bytes:\n%s", resp.Status, cl, len(body), body)
	}
	var decoded struct{ Docs []uint32 }
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatalf("router front body %q: %v", body, err)
	}
	want := []uint32{6, 14, 90, 1800, 24000000, 2000000000}
	got := slices.Clone(decoded.Docs)
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("router front answered %v, want %v in some order", decoded.Docs, want)
	}
}
