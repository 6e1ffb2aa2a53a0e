package main

import (
	"bytes"
	"hash/crc32"
)

// Response checking is a hand-rolled single pass over the body: the
// answers run to a megabyte of docids, and reflective encoding/json on
// them would make the generator, not the server, the thing measured.

var (
	keyDocs    = []byte(`"docs":[`)
	keyRanked  = []byte(`"ranked":[`)
	keyMatches = []byte(`"matches":`)
	keyPartial = []byte(`"partial":true`)

	castagnoli = crc32.MakeTable(crc32.Castagnoli)
)

// appendDocs renders docids the way encoding/json does, comma
// separated without brackets: the text a correct body carries between
// `"docs":[` and `]`.
func appendDocs(dst []byte, docs []uint32) []byte {
	for i, d := range docs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var tmp [10]byte
		at := len(tmp)
		for {
			at--
			tmp[at] = byte('0' + d%10)
			if d /= 10; d == 0 {
				break
			}
		}
		dst = append(dst, tmp[at:]...)
	}
	return dst
}

// crcOfDocs is the CRC-32C of that rendering.
func crcOfDocs(docs []uint32) uint32 {
	return crc32.Checksum(appendDocs(nil, docs), castagnoli)
}

// scanUint reads decimal digits at b[i:] and returns the value and the
// index of the first non-digit; ok is false when there is no digit.
func scanUint(b []byte, i int) (v uint64, next int, ok bool) {
	start := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		v = v*10 + uint64(b[i]-'0')
	}
	return v, i, i > start
}

// fieldUint returns the unsigned value following the last occurrence
// of key.
func fieldUint(body, key []byte) (uint64, bool) {
	at := bytes.LastIndex(body, key)
	if at < 0 {
		return 0, false
	}
	v, _, ok := scanUint(body, at+len(key))
	return v, ok
}

// scanDocs hashes the comma-separated docids of the array opening at
// b[i:], returning their count and hash; ok is false on anything that
// is not digits, commas, white space and a closing bracket.
func scanDocs(b []byte, i int) (n int, h uint64, ok bool) {
	h = hashSeed
	var v uint64
	digits := false
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c >= '0' && c <= '9':
			v = v*10 + uint64(c-'0')
			digits = true
		case (c == ',' || c == ']') && digits:
			h = (h ^ v) * hashStep
			n++
			v, digits = 0, false
			if c == ']' {
				return n, h, true
			}
		case c == ' ' || c == '\n' || c == '\t' || c == '\r':
		default:
			return n, h, false
		}
	}
	return n, h, false
}

// checkSearch reports whether body is the exact expected answer to q:
// the right documents in the right order, a matching count, and no
// partial-coverage flag from a router.
func checkSearch(body []byte, q *query) bool {
	if bytes.Contains(body[max(0, len(body)-256):], keyPartial) {
		return false
	}
	if m, ok := fieldUint(body, keyMatches); !ok || int(m) != q.wantN {
		return false
	}
	if q.mode == "topk" {
		return checkRanked(body, q.ranked)
	}
	at := bytes.Index(body, keyDocs)
	if q.wantN == 0 {
		return at < 0 // an empty answer omits the array
	}
	if at < 0 {
		return false
	}
	// Fast path: the array's bytes are exactly the canonical rendering
	// of the expected docids (hardware CRC-32C, a few µs per megabyte).
	// Anything else — other spacing, a wrong answer — is parsed.
	from := at + len(keyDocs)
	if end := bytes.IndexByte(body[from:], ']'); end >= 0 && crc32.Checksum(body[from:from+end], castagnoli) == q.wantCRC {
		return true
	}
	n, h, ok := scanDocs(body, from)
	return ok && n == q.wantN && h == q.wantH
}

// checkRanked walks `"ranked":[{"Doc":N,"Score":M},...]`.
func checkRanked(body []byte, want []rankedDoc) bool {
	at := bytes.Index(body, keyRanked)
	if len(want) == 0 {
		return at < 0
	}
	if at < 0 {
		return false
	}
	i := at + len(keyRanked)
	for _, w := range want {
		const open, mid = `{"Doc":`, `,"Score":`
		if !bytes.HasPrefix(body[i:], []byte(open)) {
			return false
		}
		doc, j, ok := scanUint(body, i+len(open))
		if !ok || uint32(doc) != w.doc || !bytes.HasPrefix(body[j:], []byte(mid)) {
			return false
		}
		score, j, ok := scanUint(body, j+len(mid))
		if !ok || int(score) != w.score || j+1 >= len(body) || body[j] != '}' {
			return false
		}
		i = j + 2 // past "}," or "}]"
	}
	return body[i-1] == ']'
}
