package server_test

import (
	"bytes"
	"encoding/binary"
	"math"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"repro/internal/ops"
	"repro/internal/server"
)

// chunkCaps are the chunk capacities every streamed body is checked at:
// one byte, a size no member fits, and the served chunk's.
var chunkCaps = []int{1, 7, server.ChunkSize}

// streamed is the body and declared Content-Length WriteJSON gives r
// through a chunk of capacity c.
func streamed(t testing.TB, r server.SearchResponse, c int) ([]byte, int) {
	t.Helper()
	rec := httptest.NewRecorder()
	if err := r.WriteJSON(rec, make([]byte, 0, c)); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("WriteJSON answered %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	n, err := strconv.Atoi(rec.Header().Get("Content-Length"))
	if err != nil {
		t.Fatalf("Content-Length %q: %v", rec.Header().Get("Content-Length"), err)
	}
	return rec.Body.Bytes(), n
}

// wordsOf is docs, sorted and distinct, as words from docs[0]'s bucket,
// with trailing zero words as a posting's last bucket leaves them.
func wordsOf(docs []uint32, trailing int) *ops.Words {
	if len(docs) == 0 {
		return &ops.Words{W: make([]uint64, trailing)}
	}
	base := docs[0] &^ 0xffff
	w := &ops.Words{Base: base, W: make([]uint64, int((docs[len(docs)-1]-base)>>6)+1+trailing)}
	for _, d := range docs {
		d -= base
		w.W[d>>6] |= 1 << (d & 63)
	}
	return w
}

// strictlySorted reports whether docs can be held as words.
func strictlySorted(docs []uint32) bool {
	for i := 1; i < len(docs); i++ {
		if docs[i] <= docs[i-1] {
			return false
		}
	}
	return true
}

// TestWriteJSONStreamMatchesAppendJSON: every wireTable body streamed
// through a chunk of 1 byte, 7 bytes or ChunkSize is AppendJSON's body
// byte for byte, under a Content-Length equal to its length. So is
// each sorted row's answer held as words instead of docids — its span
// permitting — and the answer without docids held as empty words.
func TestWriteJSONStreamMatchesAppendJSON(t *testing.T) {
	for i, r := range wireTable() {
		want := r.AppendJSON(nil)
		rows := []server.SearchResponse{r}
		if strictlySorted(r.Docs) && (len(r.Docs) == 0 || r.Docs[len(r.Docs)-1]-r.Docs[0] < 1<<26) {
			w := r
			w.Docs, w.Words = nil, wordsOf(r.Docs, i%3)
			rows = append(rows, w)
		}
		for j, row := range rows {
			for _, c := range chunkCaps {
				got, n := streamed(t, row, c)
				if !bytes.Equal(got, want) {
					t.Fatalf("case %d/%d, chunk %d: streamed\n%s\nAppendJSON\n%s", i, j, c, got, want)
				}
				if n != len(got) {
					t.Fatalf("case %d/%d, chunk %d: Content-Length %d, body %d bytes", i, j, c, n, len(got))
				}
			}
		}
	}
}

// TestWriteJSONStreamDense: the served C300 OR's shape, as docids and
// as words, streams through a ChunkSize chunk in many writes to the
// same bytes as AppendJSON.
func TestWriteJSONStreamDense(t *testing.T) {
	r := server.SearchResponse{Query: []string{"a", "b"}, Mode: "or", Docs: denseDocs(215000, 300000), Matches: 215000}
	want := r.AppendJSON(nil)
	w := r
	w.Docs, w.Words = nil, wordsOf(r.Docs, 0)
	for _, row := range []server.SearchResponse{r, w} {
		got, n := streamed(t, row, server.ChunkSize)
		if !bytes.Equal(got, want) || n != len(want) {
			t.Fatalf("streamed %d bytes (declared %d), want AppendJSON's %d", len(got), n, len(want))
		}
	}
}

// FuzzWriteJSONWords: docids from bytes, held as words, stream to the
// body AppendJSON writes for them as docids, under the right
// Content-Length, through a chunk of any capacity. data[0:2] is the
// first docid's bucket (0xffff reaches 2^32−1), data[2] the chunk
// capacity less one, and each further byte a gap: below 200 a step of
// that many, otherwise a jump of (b−199)·4096, within 2^22 of the
// bucket.
func FuzzWriteJSONWords(f *testing.F) {
	f.Add([]byte{0, 0, 6, 0, 1, 2, 3, 9, 10, 90, 199})
	f.Add([]byte{0xff, 0xff, 0, 7, 255, 1, 1, 1, 250, 3})
	f.Add([]byte{0x98, 0x96, 63, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0x3b, 0x9a, 200, 0, 0, 0, 200, 201})
	// Runs of 300 consecutive docids across 10^7 (where the text
	// outgrows one 8-byte word) and 10^9, and ending at 2^32−1; the
	// first 150 docids from 0; every other docid from 1 to 159.
	f.Add(append([]byte{0x00, 0x98, 15, 208, 199, 199, 199, 199, 199, 199, 199, 113}, make([]byte, 300)...))
	f.Add(append([]byte{0x3b, 0x9a, 255, 211, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 9}, make([]byte, 300)...))
	f.Add(append([]byte{0xff, 0xff, 6, 214, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 199, 195}, make([]byte, 300)...))
	f.Add(make([]byte, 153))
	f.Add(append([]byte{0, 0, 6}, bytes.Repeat([]byte{1}, 80)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		first := uint64(binary.BigEndian.Uint16(data)) << 16
		d := first
		var docs []uint32
		for i, b := range data[3:] {
			if b < 200 {
				d += uint64(b)
			} else {
				d += uint64(b-199) << 12
			}
			if i > 0 {
				d++
			}
			if d > 1<<32-1 || d-first >= 1<<22 {
				break
			}
			docs = append(docs, uint32(d))
		}
		r := server.SearchResponse{Query: []string{"fuzz"}, Mode: "or", Docs: docs, Matches: len(docs)}
		want := r.AppendJSON(nil)
		w := r
		w.Docs, w.Words = nil, wordsOf(docs, int(data[2]%3))
		if !slices.Equal(w.Words.Docs(), docs) && len(docs) > 0 {
			t.Fatalf("words of %v hold %v", docs, w.Words.Docs())
		}
		got, n := streamed(t, w, 1+int(data[2]))
		if !bytes.Equal(got, want) || n != len(got) {
			t.Fatalf("docs %v: streamed (declared %d)\n%s\nAppendJSON\n%s", docs, n, got, want)
		}
	})
}

// docidTextSets are the docid sets the renderer's edges are checked
// over, strictly sorted: each 10^k from 10 to 10^9 ±150 (the width
// changes there; 10^7 is also where a docid's text stops fitting in
// one 8-byte word), and the 300 docids ending at 2^32−1, each walked
// at strides 1, 3, 64 and 97. Runs of 300 cross word boundaries inside
// hundreds (64 does not divide 100), and the sets at 10 and 100 start
// in the first word with docids below 100.
func docidTextSets() [][]uint32 {
	var ranges [][2]uint64
	for p := uint64(10); p <= 1e9; p *= 10 {
		ranges = append(ranges, [2]uint64{p - min(p, 150), p + 150})
	}
	ranges = append(ranges, [2]uint64{math.MaxUint32 - 299, math.MaxUint32})
	var sets [][]uint32
	for _, r := range ranges {
		for _, stride := range []uint64{1, 3, 64, 97} {
			var docs []uint32
			for d := r[0]; d <= r[1]; d += stride {
				docs = append(docs, uint32(d))
			}
			sets = append(sets, docs)
		}
	}
	return sets
}

// TestDocidTextEdges: both walks of the docid renderer — Docs in any
// order, and Words — stream through chunks of 1, 7, 1 040 (one word's
// worst case plus a little) and ChunkSize bytes to the body whose
// docids are strconv.AppendUint's, comma-joined, under the right
// Content-Length; AppendJSON writes the same. Every set of
// docidTextSets goes as Docs and as Words, and again as Docs reversed
// and with every third docid repeated.
func TestDocidTextEdges(t *testing.T) {
	for i, docs := range docidTextSets() {
		var dup []uint32
		for j, d := range docs {
			dup = append(dup, d)
			if j%3 == 0 {
				dup = append(dup, d)
			}
		}
		rev := slices.Clone(docs)
		slices.Reverse(rev)
		rows := []server.SearchResponse{
			{Docs: docs}, {Words: wordsOf(docs, i%3)}, {Docs: rev}, {Docs: dup},
		}
		for j, row := range rows {
			list := row.Docs
			if row.Words != nil {
				list = docs
			}
			want := []byte(`{"query":["edge"],"mode":"or","docs":[`)
			for k, d := range list {
				if k > 0 {
					want = append(want, ',')
				}
				want = strconv.AppendUint(want, uint64(d), 10)
			}
			want = append(want, `],"matches":`...)
			want = append(strconv.AppendInt(want, int64(len(list)), 10), "}\n"...)
			row.Query, row.Mode, row.Matches = []string{"edge"}, "or", len(list)
			if row.Words == nil {
				if got := row.AppendJSON(nil); !bytes.Equal(got, want) {
					t.Fatalf("set %d/%d: AppendJSON\n%s\nwant\n%s", i, j, got, want)
				}
			}
			for _, c := range []int{1, 7, 1040, server.ChunkSize} {
				got, n := streamed(t, row, c)
				if !bytes.Equal(got, want) || n != len(got) {
					t.Fatalf("set %d/%d, chunk %d: streamed (declared %d)\n%s\nwant\n%s", i, j, c, n, got, want)
				}
			}
		}
	}
}
