package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/ops"
	"repro/internal/server"
)

// wireTable is the /search bodies the codec must reproduce: the edge
// cases by name, then seeded random answers of every shape.
func wireTable() []server.SearchResponse {
	stats := &ops.TopKStats{Mode: "bmw", Lists: 2, Postings: 900, BlocksTotal: 12, BlocksDecoded: 5, DocsScored: 40}
	table := []server.SearchResponse{
		{Query: []string{"absent"}, Mode: "or"},
		{Query: []string{"x"}, Mode: "and", Docs: []uint32{}},
		{Query: []string{"edge"}, Mode: "or", Docs: []uint32{0, 1, 9, 10, 99, 1e9, math.MaxUint32}, Matches: 7},
		{Query: []string{"zero"}, Mode: "topk", Ranked: []index.Result{{Doc: 0, Score: 0}}, Matches: 1, TopK: &ops.TopKStats{}},
		{Query: []string{"ext"}, Mode: "topk", Ranked: []index.Result{
			{Doc: math.MaxUint32, Score: math.MaxInt}, {Doc: 7, Score: -1}, {Doc: 8, Score: math.MinInt},
		}, Matches: 3, TopK: stats},
		{Query: []string{"none"}, Mode: "topk", TopK: stats},
		{Query: []string{"router"}, Mode: "or", Docs: []uint32{2, 4}, Matches: 2, Partial: true, DegradedShards: []int{1, 3}, Shards: 4},
		{Query: []string{"router"}, Mode: "topk", Ranked: []index.Result{{Doc: 5, Score: 3}}, Matches: 1, TopK: stats, Shards: 2},
		{Query: []string{"hot", "terms"}, Mode: "topk", Ranked: []index.Result{{Doc: 41, Score: 17}, {Doc: 3, Score: 12}}, Matches: 2,
			TopK: &ops.TopKStats{Mode: "bmw", Lists: 4, Postings: 510000, BlocksTotal: 3986, BlocksDecoded: 3986, DocsScored: 290000, Dense: 2}, Shards: 2},
		{Query: []string{`q"uote`, `back\slash`, "<html>&amp;", "line\u2028para\u2029sep", "bad\xffutf8\xc3", "ctl\x01\t\n"}, Mode: "and"},
		{Query: nil, Mode: ""},
		{Query: []string{}, Mode: "and", Matches: -1},
		{Query: []string{"pow10"}, Mode: "or", Docs: powerOfTenRuns(), Matches: -2},
		{Query: []string{"max"}, Mode: "or", Docs: []uint32{math.MaxUint32 - 2, math.MaxUint32 - 1, math.MaxUint32}, Matches: 3},
		{Query: []string{"down"}, Mode: "or", Docs: []uint32{math.MaxUint32 - 2, 2, 4e9, 1e9, 999999999, 123456, 123455, 100, 99, 42, 9, 0}, Matches: 12},
		{Query: []string{"a<b"}, Mode: "and", Docs: []uint32{3}, Matches: 1},
		{Query: []string{"dense"}, Mode: "or", Docs: denseDocs(215000, 300000), Matches: 215000},
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		r := server.SearchResponse{Query: []string{"t" + string(rune('a'+i%26))}, Mode: []string{"and", "or", "topk"}[i%3]}
		n := rng.Intn(300)
		if r.Mode == "topk" {
			r.TopK = &ops.TopKStats{Mode: "auto", Lists: rng.Intn(4), Postings: rng.Intn(1 << 20)}
			for j := 0; j < n%40; j++ {
				r.Ranked = append(r.Ranked, index.Result{Doc: rng.Uint32(), Score: rng.Intn(1<<16) - 100})
			}
			r.Matches = len(r.Ranked)
		} else {
			d := uint32(0)
			for j := 0; j < n; j++ {
				d += uint32(rng.Intn(1 << uint(rng.Intn(24))))
				r.Docs = append(r.Docs, d)
			}
			r.Matches = len(r.Docs)
		}
		if i%5 == 0 {
			r.Shards = 1 + rng.Intn(8)
			if i%10 == 0 {
				r.Partial, r.DegradedShards = true, []int{rng.Intn(r.Shards)}
			}
		}
		table = append(table, r)
	}
	return table
}

// powerOfTenRuns is a sorted list crossing every power of ten up to
// 10^9 by runs of small gaps: each run starts 12 below it and steps by
// 1, 2, 3, so it also ends in a new hundred.
func powerOfTenRuns() []uint32 {
	var docs []uint32
	for p := uint32(10); ; p *= 10 {
		for d, g := p-min(p, 12), uint32(1); d < p+12; d, g = d+g, g%3+1 {
			docs = append(docs, d)
		}
		if p == 1e9 {
			return docs
		}
	}
}

// encodeStdlib is what the handler wrote before AppendJSON.
func encodeStdlib(t testing.TB, r server.SearchResponse) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireReply is the shape HTTPBackend used to unmarshal: an answer plus
// the error member.
type wireReply struct {
	server.SearchResponse
	Error string `json:"error"`
}

// TestAppendJSONMatchesEncoder: every body AppendJSON writes is the
// encoding/json body byte for byte, so clients hashing bodies (the
// benchmark's verifier) see no change; and the parser reads it back.
func TestAppendJSONMatchesEncoder(t *testing.T) {
	for i, r := range wireTable() {
		want := encodeStdlib(t, r)
		got := r.AppendJSON(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: AppendJSON\n%s\nencoding/json\n%s", i, got, want)
		}
		if prefixed := r.AppendJSON([]byte("xy")); !bytes.Equal(prefixed, append([]byte("xy"), want...)) {
			t.Fatalf("case %d: AppendJSON does not append to dst", i)
		}

		back, errMsg, err := server.ParseSearchResponse(got)
		if err != nil || errMsg != "" {
			t.Fatalf("case %d: parse %s: %q %v", i, got, errMsg, err)
		}
		if !slices.Equal(back.Docs, r.Docs) || !slices.Equal(back.Ranked, r.Ranked) || !reflect.DeepEqual(back.TopK, r.TopK) {
			t.Fatalf("case %d: round trip %+v, want %+v", i, back, r)
		}
		var ref wireReply
		if err := json.Unmarshal(got, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, ref.SearchResponse) {
			t.Fatalf("case %d: parsed %+v, encoding/json %+v", i, back, ref.SearchResponse)
		}
	}
}

// TestParseSearchResponseRejects: malformed bodies are errors, never a
// partial answer.
func TestParseSearchResponseRejects(t *testing.T) {
	for _, body := range []string{
		``,
		`null`,
		`[]`,
		`{"docs":[1,2`,
		`{"docs":[1,2]`,
		`{"docs":[1,x]}`,
		`{"docs":[1,2,]}`,
		`{"docs":[-1]}`,
		`{"docs":[1.5]}`,
		`{"docs":[1e3]}`,
		`{"docs":[01]}`,
		`{"docs":[4294967296]}`,
		`{"docs":[99999999999999999999999]}`,
		`{"docs":"1,2"}`,
		`{"docs":[1],"docs":[2]}`,
		`{"ranked":[{"Doc":1}]}`,
		`{"ranked":[{"Doc":1,"Score":1.0}]}`,
		`{"ranked":[{"Doc":1,"Score":-}]}`,
		`{"ranked":[{"Doc":1,"Score":9223372036854775808}]}`,
		`{"ranked":[{"Doc":4294967296,"Score":1}]}`,
		`{"query":["a"}`,
		`{"query":["a],"mode":"and"}`,
		`{"mode":"and}`,
		`{"mode":and}`,
		`{"mode":"and" "matches":1}`,
		`{"matches":"1"}`,
		`{"matches":1,}`,
		`{"matches":1}x`,
		`{"matches":1}{}`,
		`{"unknown":[1,2}`,
		`{"unknown":tru}`,
		"{\"mode\":\"a\x01\"}",
		`{"m\ode":"and"}`,
	} {
		if resp, msg, err := server.ParseSearchResponse([]byte(body)); err == nil {
			t.Errorf("accepted %q as %+v %q", body, resp, msg)
		}
	}
}

// TestParseSearchResponseLikeUnmarshal: what encoding/json tolerates
// and the parser accepts reads the same — white space, unknown members,
// member names in any case or escaped, null arrays, -0, the error shape.
func TestParseSearchResponseLikeUnmarshal(t *testing.T) {
	for _, body := range []string{
		`{}`,
		" {\n \"query\" : [ \"a\" ] ,\t\"docs\" : [ 1 , 2 ,3 ] , \"matches\" : 3 } \r\n",
		`{"extra":{"nested":[1,{"x":"]}"}]},"docs":[5],"more":null}`,
		`{"DOCS":[1],"Mode":"or","MATCHES":1,"degradedShards":[2]}`,
		"{\"d\\u006fcs\":[1],\"ſhards\":2,\"TopK\":{}}",
		`{"docs":null,"ranked":null,"topk":null}`,
		`{"docs":[],"ranked":[]}`,
		`{"ranked":[ {"Doc":0,"Score":-0} , {"Doc" : 3 , "Score" : -12} ]}`,
		`{"topk":{"MODE":"bmw","lists":2},"partial":true,"shards":3}`,
		`{"error":"bad \"q\"  "}`,
	} {
		got, msg, err := server.ParseSearchResponse([]byte(body))
		if err != nil {
			t.Errorf("rejected %q: %v", body, err)
			continue
		}
		var want wireReply
		if err := json.Unmarshal([]byte(body), &want); err != nil {
			t.Fatalf("encoding/json rejects %q: %v", body, err)
		}
		if !reflect.DeepEqual(got, want.SearchResponse) || msg != want.Error {
			t.Errorf("%q: parsed %+v %q, encoding/json %+v %q", body, got, msg, want.SearchResponse, want.Error)
		}
	}
}

// FuzzParseSearchResponse is a differential fuzz against encoding/json:
// the parser never panics, and any body it accepts encoding/json also
// accepts with the same values.
func FuzzParseSearchResponse(f *testing.F) {
	for _, r := range wireTable() {
		body := r.AppendJSON(nil)
		f.Add(body)
		for _, cut := range []int{1, 2, len(body) / 2} {
			f.Add(body[:len(body)-cut])
		}
	}
	f.Add([]byte(`{"error":"k=5000 exceeds limit 1000"}`))
	f.Add([]byte(`{"Docs":[1],"x":{"y":[null,true,"é"]},"ranked":null}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		got, msg, err := server.ParseSearchResponse(body)
		if err != nil {
			return
		}
		var want wireReply
		if jerr := json.Unmarshal(body, &want); jerr != nil {
			t.Fatalf("parser accepted %q, encoding/json rejects it: %v", body, jerr)
		}
		if !reflect.DeepEqual(got, want.SearchResponse) || msg != want.Error {
			t.Fatalf("%q: parsed %+v %q, encoding/json %+v %q", body, got, msg, want.SearchResponse, want.Error)
		}
	})
}

// denseDocs is a served C300 OR's shape: n sorted docids drawn from
// [0, domain), almost every gap below 10.
func denseDocs(n, domain int) []uint32 {
	rng := rand.New(rand.NewSource(7))
	docs := make([]uint32, 0, n)
	for d := 0; d < domain && len(docs) < n; d++ {
		if rng.Intn(domain-d) < n-len(docs) {
			docs = append(docs, uint32(d))
		}
	}
	return docs
}

// BenchmarkSearchWire times the /search body both ways. "encode" is a
// sparse answer (every gap at least 280, so every docid is rendered
// afresh); "encode-dense" is the mean served C300 OR, 215 000 docids
// from 300 000, where nearly every docid is its predecessor's text
// plus a carry.
// fuzzEdges are the docids where the decimal text changes width, and
// the top of the range.
var fuzzEdges = []uint32{0, 9, 10, 99, 100, 999, 1e3, 9999, 1e4, 99999, 1e5, 999999, 1e6,
	9999999, 1e7, 99999999, 1e8, 999999999, 1e9, math.MaxUint32 - 1, math.MaxUint32}

// fuzzAnswer decodes a /search answer from data. data[0] picks the
// docid list's shape (low two bits) and up to three ranked rows (next
// two bits), 5 bytes each from the front of the rest; the other bytes
// are docids. A sorted-dense list starts at an edge less a few and
// steps by gaps below 10 (a 0xff byte jumps to another edge); a
// sorted-sparse one steps by a byte shifted by up to 24; an arbitrary
// one is edges plus or minus a little, unsorted and with duplicates.
// Sums wrap, so even a "sorted" list may step down.
func fuzzAnswer(data []byte) server.SearchResponse {
	r := server.SearchResponse{Query: []string{"fuzz"}, Mode: "or"}
	if len(data) == 0 {
		return r
	}
	shape := data[0]
	data = data[1:]
	for n := shape >> 2 & 3; n > 0 && len(data) >= 5; n-- {
		r.Ranked = append(r.Ranked, index.Result{Doc: binary.LittleEndian.Uint32(data), Score: int(int8(data[4])) << (data[4] & 63)})
		data = data[5:]
	}
	edge := func(b byte) uint32 { return fuzzEdges[int(b)%len(fuzzEdges)] }
	var d uint32
	if len(data) > 0 {
		d = edge(data[0]) - uint32(data[0]>>5)
		data = data[1:]
	}
	for i, b := range data {
		switch shape & 3 {
		case 0:
			if b == 0xff {
				d = edge(byte(i))
			} else {
				d += uint32(b % 10)
			}
		case 1:
			d += uint32(b) << (i % 25)
		default:
			d = edge(b) + uint32(int32(int8(b))>>3)
		}
		r.Docs = append(r.Docs, d)
	}
	r.Matches = len(r.Docs) + len(r.Ranked)
	return r
}

// FuzzAppendJSON is a differential fuzz of AppendJSON against
// encoding/json over docid lists of every shape — dense and sorted,
// sparse, unsorted, duplicated, at the edges where the text changes
// width — and a few ranked rows: byte for byte, whatever dst it
// appends to.
func FuzzAppendJSON(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2})
	f.Add([]byte{0, 18, 9, 9, 9, 0xff, 1, 1, 1, 1, 9, 9})
	f.Add([]byte{0, 19, 0, 0, 1})
	f.Add([]byte{1, 0, 0xff, 0x80, 7, 3, 200})
	f.Add([]byte{2, 20, 19, 0, 1, 0x80, 0x7f, 20, 20, 3})
	f.Add([]byte{14, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0, 0, 0x7f, 1, 2, 3, 4, 0x41, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := fuzzAnswer(data)
		want := encodeStdlib(t, r)
		if got := r.AppendJSON(nil); !bytes.Equal(got, want) {
			t.Fatalf("docs %v ranked %v: AppendJSON\n%s\nencoding/json\n%s", r.Docs, r.Ranked, got, want)
		}
		if got := r.AppendJSON([]byte("xy")); !bytes.Equal(got, append([]byte("xy"), want...)) {
			t.Fatalf("docs %v: AppendJSON onto a full dst\n%s", r.Docs, got)
		}
	})
}

func BenchmarkSearchWire(b *testing.B) {
	r := server.SearchResponse{Query: []string{"a", "b"}, Mode: "or"}
	for d := uint32(0); len(r.Docs) < 25000; d += 7 + d%13 {
		r.Docs = append(r.Docs, d*40)
	}
	r.Matches = len(r.Docs)
	body := r.AppendJSON(nil)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			r.AppendJSON(nil)
		}
	})
	dense := server.SearchResponse{Query: []string{"a", "b"}, Mode: "or", Docs: denseDocs(215000, 300000)}
	dense.Matches = len(dense.Docs)
	b.Run("encode-dense", func(b *testing.B) {
		b.SetBytes(int64(len(dense.AppendJSON(nil))))
		for i := 0; i < b.N; i++ {
			dense.AppendJSON(nil)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, _, err := server.ParseSearchResponse(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
