package server

import (
	"bytes"
	"encoding"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"repro/internal/bitmap"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/ops"
)

// The /search wire format is SearchResponse's encoding/json encoding:
// its struct tags are the spec. AppendJSON writes it and
// ParseSearchResponse reads it, by hand for the docid and ranked arrays
// that make up nearly every byte of a large answer, and through
// encoding/json for the small members, whose string escaping rules
// (HTML characters, U+2028/U+2029, invalid UTF-8) live there. Both are
// pinned to encoding/json by test: AppendJSON byte for byte, the parser
// by a differential fuzz.

// AppendJSON appends the bytes json.NewEncoder(w).Encode(r) writes —
// same member order, same omitempty rules, same trailing newline — to
// dst and returns the extended slice. It grows dst once, by the size of
// the answer when its docids are sorted: every docid then has at most
// as many digits as the last. Docids go through appendDocids, at gap
// speed; ranked rows (at most k) through strconv. Words is not
// written: the handler streams every body with WriteJSON, and
// AppendJSON is the reference its bodies are checked against.
func (r *SearchResponse) AppendJSON(dst []byte) []byte {
	// A ranked row is at most
	// `{"Doc":4294967295,"Score":-9223372036854775808},`, 48 bytes.
	n := 128 + 48*len(r.Ranked)
	if len(r.Docs) > 0 {
		n += len(r.Docs)*(1+decimalDigits(r.Docs[len(r.Docs)-1])) + docidStore
	}
	for _, t := range r.Query {
		n += len(t) + 3
	}
	dst = slices.Grow(dst, n)

	dst = r.appendHead(dst)
	if len(r.Docs) > 0 {
		dst = append(dst, `,"docs":[`...)
		dst = appendDocids(dst, r.Docs)
		dst = append(dst, ']')
	}
	if len(r.Ranked) > 0 {
		dst = append(dst, `,"ranked":[`...)
		for i, x := range r.Ranked {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendRankedRow(dst, x)
		}
		dst = append(dst, ']')
	}
	return r.appendTail(dst)
}

// appendHead appends the members before "docs": the opening brace,
// "query" and "mode".
func (r *SearchResponse) appendHead(dst []byte) []byte {
	dst = append(dst, `{"query":`...)
	dst = appendMarshal(dst, r.Query)
	dst = append(dst, `,"mode":`...)
	return appendMarshal(dst, r.Mode)
}

// appendRankedRow appends one ranked row, {"Doc":N,"Score":M}.
func appendRankedRow(dst []byte, x index.Result) []byte {
	dst = append(dst, `{"Doc":`...)
	dst = strconv.AppendUint(dst, uint64(x.Doc), 10)
	dst = append(dst, `,"Score":`...)
	dst = strconv.AppendInt(dst, int64(x.Score), 10)
	return append(dst, '}')
}

// appendTail appends the members after "ranked", the closing brace and
// the newline.
func (r *SearchResponse) appendTail(dst []byte) []byte {
	dst = append(dst, `,"matches":`...)
	dst = strconv.AppendInt(dst, int64(r.Matches), 10)
	if r.TopK != nil {
		dst = append(dst, `,"topk":`...)
		dst = appendMarshal(dst, r.TopK)
	}
	if r.Partial {
		dst = append(dst, `,"partial":true`...)
	}
	if len(r.DegradedShards) > 0 {
		dst = append(dst, `,"degradedShards":`...)
		dst = appendMarshal(dst, r.DegradedShards)
	}
	if r.Shards != 0 {
		dst = append(dst, `,"shards":`...)
		dst = strconv.AppendInt(dst, int64(r.Shards), 10)
	}
	return append(dst, "}\n"...)
}

// ChunkSize is the capacity of the chunk the /search handler streams
// every JSON body through, whatever the answer's size.
const ChunkSize = 64 << 10

// chunkPool holds the handler's chunks: each a fixed ChunkSize array,
// so the pool's memory is bounded by the requests in flight, never by
// the largest answer served.
var chunkPool = sync.Pool{New: func() any { return new([ChunkSize]byte) }}

// WriteJSON answers 200 with r's JSON body — AppendJSON's bytes, with
// Words written as the docids they hold — with its Content-Type and
// Content-Length, writing it to w through chunk:
// the body is built in chunk[:cap(chunk)] and handed to w each time it
// fills, so no buffer ever holds the whole body. The length is counted
// before the first byte: the docids' text from the digit counts at the
// powers of ten, by binary search over sorted Docs (a digit loop over
// unsorted ones) or by popcount over Words. Docs are rendered by
// appendDocids, Words word by word straight into the chunk, both by
// the one docid renderer (see hundred). It is
// correct for any chunk capacity; a capacity below about 64 bytes only
// costs writes and allocations. Docs are checked for order, not
// assumed sorted: a router's may come unchecked from a replica's JSON
// reply. The error is the first failed write.
func (r *SearchResponse) WriteJSON(w http.ResponseWriter, chunk []byte) error {
	var tailStore [256]byte
	tail := r.appendTail(tailStore[:0])
	s := chunkWriter{w: w, buf: r.appendHead(chunk[:0])}
	var count, text int
	if r.Words != nil {
		count, text = wordsText(*r.Words)
	} else {
		count, text = len(r.Docs), docsText(r.Docs)
	}
	n := len(s.buf) + rankedLen(r.Ranked) + len(tail)
	if count > 0 {
		n += len(`,"docs":[]`) + text
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(n))
	w.WriteHeader(http.StatusOK)
	if count > 0 {
		if r.Words != nil {
			s.text(`,"docs":`)
			s.words(*r.Words)
		} else {
			s.text(`,"docs":[`)
			s.docids(r.Docs)
		}
		s.text("]")
	}
	if len(r.Ranked) > 0 {
		s.text(`,"ranked":[`)
		for i, x := range r.Ranked {
			s.room(48)
			if i > 0 {
				s.buf = append(s.buf, ',')
			}
			s.buf = appendRankedRow(s.buf, x)
		}
		s.text("]")
	}
	s.room(len(tail))
	s.buf = append(s.buf, tail...)
	s.flush()
	return s.err
}

// chunkWriter is WriteJSON's output: the bytes not yet handed to w,
// in a buffer whose capacity is the chunk's. The capacity is never 0:
// the head WriteJSON renders first grows an empty chunk.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// flush hands the buffered bytes to w. After a failed write the rest
// of the body is dropped.
func (s *chunkWriter) flush() {
	if s.err == nil && len(s.buf) > 0 {
		_, s.err = s.w.Write(s.buf)
	}
	s.buf = s.buf[:0]
}

// room flushes unless n more bytes fit in the chunk.
func (s *chunkWriter) room(n int) {
	if cap(s.buf)-len(s.buf) < n {
		s.flush()
	}
}

// text appends t, flushing first unless it fits.
func (s *chunkWriter) text(t string) {
	s.room(len(t))
	s.buf = append(s.buf, t...)
}

// docids appends docs as appendDocids writes them, as many at a time
// as the chunk has room for.
func (s *chunkWriter) docids(docs []uint32) {
	for first := true; len(docs) > 0 && s.err == nil; first = false {
		k := s.fit(docs)
		if k == 0 {
			s.flush()
			k = max(s.fit(docs), 1)
		}
		if !first {
			s.buf = append(s.buf, ',')
		}
		s.buf = appendDocids(s.buf, docs[:k])
		docs = docs[k:]
	}
}

// fit returns how many leading docids of docs appendDocids can write,
// after a comma, into the chunk's free room without growing it: each
// takes a comma and its digits, and the last store docidStore bytes. In
// a sorted list none of the first free/2 docids is wider than the last
// of them; an unsorted one may be, and then only costs appendDocids a
// grown buffer.
func (s *chunkWriter) fit(docs []uint32) int {
	free := cap(s.buf) - len(s.buf) - docidStore
	k := min(len(docs), free/2)
	if k <= 0 {
		return 0
	}
	return min(k, free/(1+decimalDigits(docs[k-1])))
}

// wordText is the room renderWord needs for one word: 64 docids, each
// written by a store of at most docidStore bytes.
const wordText = 64 * docidStore

// words appends w's values as the docids array's text after its
// opening: each value's ",digits", with the first comma made the '['
// that opens the array. Each word is rendered straight into the chunk,
// which is flushed first unless a word's wordText bytes fit; a chunk
// too small for that takes each word rendered into a stack scratch,
// copied through it.
func (s *chunkWriter) words(w ops.Words) {
	var scratch [wordText]byte
	h := hundred{first: noHundred}
	open := true
	for i, x := range w.W {
		if s.err != nil {
			return
		}
		if x == 0 {
			continue
		}
		s.room(wordText)
		b := &scratch
		if cap(s.buf) >= wordText {
			b = (*[wordText]byte)(s.buf[len(s.buf):cap(s.buf)])
		}
		var n int
		n, h = renderWord(b, x, uint64(w.Base)+uint64(i)<<6, h)
		if open {
			b[0], open = '[', false
		}
		if b == &scratch {
			s.write(scratch[:n])
		} else {
			s.buf = s.buf[:len(s.buf)+n]
		}
	}
}

// write appends b, handing the chunk to w each time it fills.
func (s *chunkWriter) write(b []byte) {
	for {
		k := copy(s.buf[len(s.buf):cap(s.buf)], b)
		s.buf = s.buf[:len(s.buf)+k]
		if b = b[k:]; len(b) == 0 {
			return
		}
		s.flush()
	}
}

// docsText returns the length of docs' comma-separated decimal text.
// A docid has one digit plus one for each power of ten from 10 to 10^9
// it reaches, so over a sorted list the text is counted by one binary
// search per power of ten; an unsorted one takes a digit loop.
func docsText(docs []uint32) int {
	if len(docs) == 0 {
		return 0
	}
	n := 2*len(docs) - 1
	if !slices.IsSorted(docs) {
		for _, v := range docs {
			n += decimalDigits(v) - 1
		}
		return n
	}
	for _, p := range pow10[1:] {
		i, _ := slices.BinarySearch(docs, p)
		n += len(docs) - i
	}
	return n
}

// wordsText returns the number of values in w and the length of their
// comma-separated decimal text, from popcounts over the bit ranges that
// the powers of ten cut w into: one pass over the words.
func wordsText(w ops.Words) (count, n int) {
	span := 64 * uint64(len(w.W))
	from := uint64(0)
	for d := 1; d <= len(pow10); d++ {
		to := span
		if d < len(pow10) {
			to = min(span, uint64(pow10[d])-min(uint64(pow10[d]), uint64(w.Base)))
		}
		c := popcountRange(w.W, from, to)
		count, n, from = count+c, n+d*c, to
	}
	if count > 0 {
		n += count - 1
	}
	return count, n
}

// popcountRange counts the set bits of words at bit positions [from, to).
func popcountRange(words []uint64, from, to uint64) int {
	if from >= to {
		return 0
	}
	i, j := from>>6, (to-1)>>6
	lo, hi := ^uint64(0)<<(from&63), ^uint64(0)>>(63-(to-1)&63)
	if i == j {
		return bits.OnesCount64(words[i] & lo & hi)
	}
	return bits.OnesCount64(words[i]&lo) + kernels.PopcountWords(words[i+1:j]) + bits.OnesCount64(words[j]&hi)
}

// rankedLen returns the length of the "ranked" member, 0 when there is
// none.
func rankedLen(ranked []index.Result) int {
	if len(ranked) == 0 {
		return 0
	}
	n := len(`,"ranked":[]`) + len(ranked) - 1
	for _, x := range ranked {
		var b [20]byte
		n += len(`{"Doc":,"Score":}`) + decimalDigits(x.Doc) + len(strconv.AppendInt(b[:0], int64(x.Score), 10))
	}
	return n
}

// docidStore is the width of the store that writes a docid's text
// when it is not one 8-byte word: a comma and up to 10 digits, as two
// 8-byte words.
const docidStore = 16

// The renderer of docid text, shared by appendDocids (a []uint32, in
// any order) and renderWord (the values of a word). Its state is
// a hundred: the ",digits" text of the hundred the last docid fell in,
// with the last two digits zero. Every docid in that hundred is the
// same text with its last two digits filled in, and a hundred from 100
// up has one width, since every power of ten from 100 up is a multiple
// of 100. Below 10^7 the text (a comma and at most 7 digits, narrowText
// bytes) fits in one word, so such a docid costs one 8-byte store of the
// template ORed with a digit pair from narrowPairs, already shifted
// for the width. A wider docid costs a docidStore-byte store of the
// template and a 2-byte store of its pair. A docid outside the hundred
// goes to renderDocid, which renders it afresh and enters its hundred.

// hundred is the renderer's state.
type hundred struct {
	lo, hi uint64 // the template: bytes 0–7 and 8–15, little-endian
	first  uint64 // the hundred's first docid, or noHundred
	n      int    // the text's length, a comma and the digits
}

// noHundred is the first docid of the state before any docid and after
// one below 100, whose hundred holds docids of two widths: no docid is
// within 100 above it, so the next one is rendered afresh.
const noHundred = 1 << 63

// narrowText is the longest docid text one 8-byte store writes: a
// comma and 7 digits, the docids below 10^7.
const narrowText = 8

// narrowPairs[k][r] is r's two-digit text, "00" to "99", shifted to
// where it ends a k-digit docid's ",digits" text held as a
// little-endian word: bytes k−1 and k. Rows 3 to 7 are used.
var narrowPairs = func() (t [8][100]uint64) {
	for k := 3; k < len(t); k++ {
		for r := range t[k] {
			t[k][r] = uint64('0'+r/10)<<(8*(k-1)) | uint64('0'+r%10)<<(8*k)
		}
	}
	return t
}()

// pairsFor returns the row of narrowPairs for h's width. A wide or
// empty hundred gets a row the narrow store never reads.
func pairsFor(h hundred) *[100]uint64 {
	return &narrowPairs[(h.n-1)&7]
}

// narrow writes the text of docid h.first+r, for a hundred below
// 10^7, at out[pos:] with one 8-byte store, and returns the
// position after it. pairs is pairsFor(h).
func (h hundred) narrow(out []byte, pos int, pairs *[100]uint64, r uint64) int {
	binary.LittleEndian.PutUint64(out[pos:], h.lo|pairs[r])
	return pos + h.n
}

// wide writes the text of docid h.first+r, for a hundred of any
// width, at out[pos:] with a docidStore-byte store and a 2-byte store, and
// returns the position after it.
func (h hundred) wide(out []byte, pos int, r uint64) int {
	binary.LittleEndian.PutUint64(out[pos:], h.lo)
	binary.LittleEndian.PutUint64(out[pos+8:], h.hi)
	*(*[2]byte)(out[pos+h.n-2:]) = docidPairs[r]
	return pos + h.n
}

// renderDocid writes d's ",digits" text at out[pos:], which must have
// docidStore bytes of room, and returns the position after the text
// and d's hundred. It renders the hundred's
// template first and then writes d as wide does. It is the renderer's
// slow path, taken once per hundred entered, and stays out of line so
// that the loops calling it keep their state in registers.
//
//go:noinline
func renderDocid(out []byte, pos int, d uint64) (int, hundred) {
	v := uint32(d)
	n := 1 + decimalDigits(v)
	t := [docidStore]byte{','}
	if v < 100 {
		if v >= 10 {
			*(*[2]byte)(t[1:]) = docidPairs[v]
		} else {
			t[1] = byte('0' + v)
		}
		*(*[docidStore]byte)(out[pos:]) = t
		return pos + n, hundred{first: noHundred}
	}
	u, r := v/100, v%100
	i := n - 4
	for ; u >= 100; i -= 2 {
		q := u / 100
		*(*[2]byte)(t[i:]) = docidPairs[u-100*q]
		u = q
	}
	if u >= 10 {
		*(*[2]byte)(t[i:]) = docidPairs[u]
	} else {
		t[i+1] = byte('0' + u)
	}
	h := hundred{
		lo:    binary.LittleEndian.Uint64(t[:8]),
		hi:    binary.LittleEndian.Uint64(t[8:]),
		first: d - uint64(r),
		n:     n,
	}
	return h.wide(out, pos, uint64(r)), h
}

// appendDocids appends docs in decimal, comma-separated, as
// encoding/json writes a []uint32: the first by strconv, the rest by
// the renderer. Sorted or not, duplicated or not, every docid is
// either in the hundred of the one before it or rendered afresh. The
// docids go in batches that the room left takes at docidStore bytes
// each, growing dst when not one fits, so the loop is correct whatever
// capacity dst arrives with; within a batch, the loop over a hundred's
// run has no call and no room check.
func appendDocids(dst []byte, docs []uint32) []byte {
	dst = strconv.AppendUint(dst, uint64(docs[0]), 10)
	pos, out := len(dst), dst[:cap(dst)]
	h := hundred{first: noHundred}
	for i := 1; i < len(docs); {
		if len(out)-pos < docidStore {
			out = growDocids(out, pos, len(docs)-i)
		}
		batch := docs[:min(len(docs), i+(len(out)-pos)/docidStore)]
		for i < len(batch) {
			if d := uint64(batch[i]); d-h.first >= 100 {
				pos, h = renderDocid(out, pos, d)
				i++
				continue
			}
			if h.n <= narrowText {
				pairs := pairsFor(h)
				for ; i < len(batch); i++ {
					r := uint64(batch[i]) - h.first
					if r >= 100 {
						break
					}
					pos = h.narrow(out, pos, pairs, r)
				}
			} else {
				for ; i < len(batch); i++ {
					r := uint64(batch[i]) - h.first
					if r >= 100 {
						break
					}
					pos = h.wide(out, pos, r)
				}
			}
		}
	}
	return out[:pos]
}

// renderWord writes at the start of b the ",digits" text of x's
// values, p plus the position of each set bit, and returns its length
// and the renderer's state. A word meets at most two hundreds, since
// 64 < 100: each is one run of x's bits, cut off by a mask, and written
// by a loop with no branch but its own, one store per docid below
// 10^7 and two plus a pair store above it. Only the first
// docid of a hundred not yet entered goes to renderDocid.
func renderWord(b *[wordText]byte, x, p uint64, h hundred) (int, hundred) {
	out, j := b[:], 0
	for x != 0 {
		if d := p + uint64(bits.TrailingZeros64(x)); d-h.first >= 100 {
			j, h = renderDocid(out, j, d)
			if x &= x - 1; h.first == noHundred {
				continue
			}
		}
		run := x
		if e := h.first + 100 - p; e < 64 {
			run &= 1<<e - 1
		}
		x &^= run
		q := p - h.first
		if h.n <= narrowText {
			// j stays below 8·64, so the mask changes no index and
			// spares the bounds check.
			pairs := pairsFor(h)
			for ; run != 0; run &= run - 1 {
				j = h.narrow(out, j&(wordText/2-1), pairs, q+uint64(bits.TrailingZeros64(run)))
			}
		} else {
			for ; run != 0; run &= run - 1 {
				j = h.wide(out, j, q+uint64(bits.TrailingZeros64(run)))
			}
		}
	}
	return j, h
}

// growDocids is appendDocids's slow path, for a size hint that was
// short (the docids are not sorted): out[:pos] grown by room for rest
// more docids at the widest, resliced to its capacity.
func growDocids(out []byte, pos, rest int) []byte {
	out = slices.Grow(out[:pos], docidStore+11*rest)
	return out[:cap(out)]
}

// docidPairs holds the two-digit text of 0 to 99, "00" to "99".
var docidPairs = func() (p [100][2]byte) {
	for r := range p {
		p[r] = [2]byte{byte('0' + r/10), byte('0' + r%10)}
	}
	return p
}()

// pow10 holds 10^0 to 10^9.
var pow10 = [...]uint32{1, 10, 100, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// decimalDigits is the number of decimal digits in v: the estimate
// from its bit length, about log10(2) per bit, is exact or one short.
// Setting the low bit counts 0 as one digit and moves no other count.
func decimalDigits(v uint32) int {
	v |= 1
	n := bits.Len32(v) * 1233 >> 12
	if v >= pow10[n] {
		n++
	}
	return n
}

// appendMarshal appends json.Marshal(v). The error is dropped because v
// is one of SearchResponse's small members: strings, ints and a struct
// of them, which always marshal.
func appendMarshal(dst []byte, v any) []byte {
	b, _ := json.Marshal(v)
	return append(dst, b...)
}

// The members ParseSearchResponse knows, in SearchResponse order plus
// the error shape's one member. Keys match them as encoding/json does,
// ignoring case.
const (
	fieldQuery = iota
	fieldMode
	fieldDocs
	fieldRanked
	fieldMatches
	fieldTopK
	fieldPartial
	fieldDegradedShards
	fieldShards
	fieldError
)

var wireFields = [...]string{"query", "mode", "docs", "ranked", "matches", "topk", "partial", "degradedShards", "shards", "error"}

// ParseSearchResponse reads a /search body in one left-to-right pass:
// an answer, or the {"error":msg} refusal, whose message comes back as
// errMsg. The docid and ranked arrays are parsed by hand; every other
// member is handed to json.Unmarshal as its raw bytes, and an unknown
// member is skipped once json.Valid accepts it. Whatever it accepts,
// json.Unmarshal into SearchResponse plus an `error` string accepts with
// the same values. It is stricter in three ways, none of which a
// server's body exercises: a member may appear once, a ranked row must
// read {"Doc":N,"Score":M} in that order, and the body must be an
// object. A body it rejects yields an error and no answer.
func ParseSearchResponse(body []byte) (resp SearchResponse, errMsg string, err error) {
	p := wireParser{b: body}
	if !p.consume('{') {
		return SearchResponse{}, "", p.fail("expected '{'")
	}
	small := [...]any{
		fieldQuery: &resp.Query, fieldMode: &resp.Mode, fieldMatches: &resp.Matches,
		fieldTopK: &resp.TopK, fieldPartial: &resp.Partial, fieldDegradedShards: &resp.DegradedShards,
		fieldShards: &resp.Shards, fieldError: &errMsg,
	}
	var seen uint16
	if !p.consume('}') {
		for {
			key, err := p.key()
			if err != nil {
				return SearchResponse{}, "", err
			}
			f := fieldOf(key)
			if f >= 0 {
				if seen&(1<<f) != 0 {
					return SearchResponse{}, "", p.fail(fmt.Sprintf("duplicate member %q", wireFields[f]))
				}
				seen |= 1 << f
			}
			switch f {
			case fieldDocs:
				resp.Docs, err = p.docs()
			case fieldRanked:
				resp.Ranked, err = p.ranked()
			default:
				at := p.i
				raw, verr := p.value()
				switch {
				case verr != nil:
					err = verr
				case f >= 0:
					if jerr := json.Unmarshal(raw, small[f]); jerr != nil {
						err = fmt.Errorf("server: /search body: member %q at byte %d: %w", wireFields[f], at, jerr)
					}
				case !json.Valid(raw):
					err = p.fail(fmt.Sprintf("invalid value for member %q", key))
				}
			}
			if err != nil {
				return SearchResponse{}, "", err
			}
			if p.consume(',') {
				continue
			}
			if p.consume('}') {
				break
			}
			return SearchResponse{}, "", p.fail("expected ',' or '}'")
		}
	}
	p.space()
	if p.i != len(p.b) {
		return SearchResponse{}, "", p.fail("trailing data after the object")
	}
	return resp, errMsg, nil
}

// fieldOf returns the index in wireFields of the member key names, or
// -1 for a member SearchResponse does not have.
func fieldOf(key []byte) int {
	for f, name := range wireFields {
		if bytes.EqualFold(key, []byte(name)) {
			return f
		}
	}
	return -1
}

// wireParser is the read position in one /search body.
type wireParser struct {
	b []byte
	i int
}

// fail reports what is wrong at the read position.
func (p *wireParser) fail(what string) error {
	return fmt.Errorf("server: /search body: %s at byte %d", what, p.i)
}

// space skips JSON white space.
func (p *wireParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// consume skips white space and then c, reporting whether c was there.
func (p *wireParser) consume(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// literal skips white space and then s, reporting whether s was there.
func (p *wireParser) literal(s string) bool {
	p.space()
	if bytes.HasPrefix(p.b[p.i:], []byte(s)) {
		p.i += len(s)
		return true
	}
	return false
}

// key reads a member name and the colon after it. A name holding an
// escape is unquoted by encoding/json, the rare path.
func (p *wireParser) key() ([]byte, error) {
	p.space()
	raw, escaped, err := p.str()
	if err != nil {
		return nil, err
	}
	key := raw[1 : len(raw)-1]
	if escaped {
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, p.fail("bad member name")
		}
		key = []byte(s)
	}
	if !p.consume(':') {
		return nil, p.fail("expected ':'")
	}
	return key, nil
}

// str reads the string starting at p.i and returns its raw bytes,
// quotes included, and whether it holds a backslash escape. Escapes are
// left for encoding/json to check.
func (p *wireParser) str() (raw []byte, escaped bool, err error) {
	if p.i >= len(p.b) || p.b[p.i] != '"' {
		return nil, false, p.fail("expected a string")
	}
	for i := p.i + 1; i < len(p.b); i++ {
		switch c := p.b[i]; {
		case c == '"':
			raw, p.i = p.b[p.i:i+1], i+1
			return raw, escaped, nil
		case c == '\\':
			escaped = true
			i++
		case c < 0x20:
			p.i = i
			return nil, false, p.fail("control character in string")
		}
	}
	return nil, false, p.fail("unterminated string")
}

// value skips one value of any kind and returns its raw bytes, for the
// caller to validate: strings are skipped whole, brackets are counted,
// and a scalar ends at the first delimiter.
func (p *wireParser) value() ([]byte, error) {
	p.space()
	start, depth := p.i, 0
	for p.i < len(p.b) {
		switch c := p.b[p.i]; c {
		case '"':
			if _, _, err := p.str(); err != nil {
				return nil, err
			}
		case '{', '[':
			depth++
			p.i++
		case '}', ']':
			if depth == 0 {
				return p.b[start:p.i], nil
			}
			depth--
			p.i++
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return p.b[start:p.i], nil
			}
			p.i++
		default:
			p.i++
			continue
		}
		if depth == 0 {
			return p.b[start:p.i], nil
		}
	}
	if depth > 0 {
		return nil, p.fail("unterminated array or object")
	}
	return p.b[start:p.i], nil
}

// integer reads the digits of a JSON integer at p.i — "0", or a
// non-zero digit and more digits — failing on none or once the value
// exceeds max. A leading zero ends the number, so "01" fails at the
// caller's next delimiter.
func (p *wireParser) integer(max uint64) (uint64, bool) {
	b, i := p.b, p.i
	if i >= len(b) || b[i]-'0' > 9 {
		return 0, false
	}
	v := uint64(b[i] - '0')
	i++
	if v != 0 {
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if v > max/10 {
				return 0, false
			}
			if v = v*10 + uint64(b[i]-'0'); v > max {
				return 0, false
			}
		}
	}
	p.i = i
	return v, true
}

// docs reads the "docs" array: null, or docids up to 2^32-1. The slice
// is sized by the commas before the first ']'.
func (p *wireParser) docs() ([]uint32, error) {
	if p.literal("null") {
		return nil, nil
	}
	if !p.consume('[') {
		return nil, p.fail("expected '[' opening docs")
	}
	n := 1
	if end := bytes.IndexByte(p.b[p.i:], ']'); end >= 0 {
		n += bytes.Count(p.b[p.i:p.i+end], []byte{','})
	}
	docs := make([]uint32, 0, n)
	if p.consume(']') {
		return docs, nil
	}
	for {
		p.space()
		v, ok := p.integer(math.MaxUint32)
		if !ok {
			return nil, p.fail("bad docid")
		}
		docs = append(docs, uint32(v))
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return docs, nil
		}
		return nil, p.fail("expected ',' or ']' in docs")
	}
}

// ranked reads the "ranked" array: null, or {"Doc":N,"Score":M} rows.
// The slice is sized by the '{' before the first ']'.
func (p *wireParser) ranked() ([]index.Result, error) {
	if p.literal("null") {
		return nil, nil
	}
	if !p.consume('[') {
		return nil, p.fail("expected '[' opening ranked")
	}
	n := 0
	if end := bytes.IndexByte(p.b[p.i:], ']'); end >= 0 {
		n = bytes.Count(p.b[p.i:p.i+end], []byte{'{'})
	}
	ranked := make([]index.Result, 0, n)
	if p.consume(']') {
		return ranked, nil
	}
	for {
		if !p.consume('{') || !p.literal(`"Doc"`) || !p.consume(':') {
			return nil, p.fail(`expected {"Doc": in ranked`)
		}
		p.space()
		doc, ok := p.integer(math.MaxUint32)
		if !ok {
			return nil, p.fail("bad ranked Doc")
		}
		if !p.consume(',') || !p.literal(`"Score"`) || !p.consume(':') {
			return nil, p.fail(`expected ,"Score": in ranked`)
		}
		p.space()
		neg := p.i < len(p.b) && p.b[p.i] == '-'
		limit := uint64(math.MaxInt)
		if neg {
			p.i++
			limit++
		}
		mag, ok := p.integer(limit)
		if !ok {
			return nil, p.fail("bad ranked Score")
		}
		score := int(mag)
		if neg {
			score = -score
		}
		if !p.consume('}') {
			return nil, p.fail("expected '}' closing a ranked row")
		}
		ranked = append(ranked, index.Result{Doc: uint32(doc), Score: score})
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return ranked, nil
		}
		return nil, p.fail("expected ',' or ']' in ranked")
	}
}

// PostingContentType is the /search answer's second encoding, for the
// router's hop to its shards: a complete boolean answer's docids as the
// MarshalBinary bytes of a bitmap.Roaring posting, about 2 bits per
// docid where JSON takes about 7 bytes. A front sends it only to a
// request whose Accept header names it, and only for an and/or answer
// that is not partial; every other answer is JSON.
const PostingContentType = "application/x-bvposting"

// MarshalPosting returns docs, sorted and distinct, as the body of a
// posting answer.
func MarshalPosting(docs []uint32) ([]byte, error) {
	p, err := bitmap.Roaring{}.Compress(docs)
	if err != nil {
		return nil, err
	}
	return p.(encoding.BinaryMarshaler).MarshalBinary()
}

// MarshalPostingWords returns the values of w as the body of a posting
// answer: MarshalPosting(w.Docs())'s bytes, built from the words.
func MarshalPostingWords(w ops.Words) []byte {
	return bitmap.MarshalRoaringWords(w.W, w.Base)
}

// ParsePosting reads a posting answer's body back into its docids. The
// body must be one whole bitmap.Roaring posting: another format tag, a
// truncated container or bytes after the last one are refused by the
// decoder. The cardinality is read from the header, which the decoder
// checks against the containers, and a count over maxDocs is refused
// before anything is decoded, so a body within a size limit cannot
// expand into gigabytes of docids.
func ParsePosting(body []byte, maxDocs int) ([]uint32, error) {
	p, err := decodePosting(body, maxDocs)
	if err != nil {
		return nil, err
	}
	return p.Decompress(), nil
}

// ParsePostingWords is ParsePosting for a caller that takes a dense
// answer as words: when the posting's buckets are dense (ops.Dense),
// its containers are ORed into words spanning them and no docid list is
// made; otherwise the docids come back as from ParsePosting.
func ParsePostingWords(body []byte, maxDocs int) ([]uint32, *ops.Words, error) {
	p, err := decodePosting(body, maxDocs)
	if err != nil {
		return nil, nil, err
	}
	if b, ok := p.(core.BucketProber); ok && b.NumBuckets() > 0 {
		lo, hi := uint32(b.BucketKey(0))<<16, uint32(b.BucketKey(b.NumBuckets()-1))<<16|0xffff
		if ops.Dense(p.Len(), lo, hi) {
			w := &ops.Words{Base: lo, W: make([]uint64, int((hi-lo)>>6)+1)}
			b.OrWordsInto(w.W, lo)
			return nil, w, nil
		}
	}
	return p.Decompress(), nil, nil
}

// decodePosting checks a posting body's header against maxDocs, then
// decodes it.
func decodePosting(body []byte, maxDocs int) (core.Posting, error) {
	n, _, err := core.GetHeader(body, core.TagRoaring)
	if err != nil {
		return nil, fmt.Errorf("server: posting body: %w", err)
	}
	if n > maxDocs {
		return nil, fmt.Errorf("server: posting body holds %d docids, limit is %d", n, maxDocs)
	}
	p, err := bitmap.Roaring{}.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("server: posting body: %w", err)
	}
	return p, nil
}
