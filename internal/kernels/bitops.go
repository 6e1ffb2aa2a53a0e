package kernels

import "math/bits"

// Word-batch bitmap kernels: 4-way-unrolled bulk operations over
// []uint64 bit-vector words, and the shared set-bit extraction loop
// that every bitmap codec's materialization path funnels through.
// The unroll keeps four independent word operations in flight per
// iteration, which hides load latency the single-word loops in the
// codecs used to serialize on.

// AndWords sets dst[i] = a[i] & b[i] for i < len(dst). a and b must be
// at least len(dst) long.
func AndWords(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a[i] & b[i]
		dst[i+1] = a[i+1] & b[i+1]
		dst[i+2] = a[i+2] & b[i+2]
		dst[i+3] = a[i+3] & b[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] & b[i]
	}
}

// OrWords sets dst[i] = a[i] | b[i] for i < len(dst). a and b must be
// at least len(dst) long.
func OrWords(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a[i] | b[i]
		dst[i+1] = a[i+1] | b[i+1]
		dst[i+2] = a[i+2] | b[i+2]
		dst[i+3] = a[i+3] | b[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] | b[i]
	}
}

// AndNotWords sets dst[i] = a[i] &^ b[i] for i < len(dst). a and b must
// be at least len(dst) long.
func AndNotWords(dst, a, b []uint64) {
	n := len(dst)
	a = a[:n]
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		dst[i] = a[i] &^ b[i]
		dst[i+1] = a[i+1] &^ b[i+1]
		dst[i+2] = a[i+2] &^ b[i+2]
		dst[i+3] = a[i+3] &^ b[i+3]
	}
	for ; i < n; i++ {
		dst[i] = a[i] &^ b[i]
	}
}

// PopcountWords returns the total number of set bits in words, with
// four independent accumulators.
func PopcountWords(words []uint64) int {
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(words); i += 4 {
		c0 += bits.OnesCount64(words[i])
		c1 += bits.OnesCount64(words[i+1])
		c2 += bits.OnesCount64(words[i+2])
		c3 += bits.OnesCount64(words[i+3])
	}
	for ; i < len(words); i++ {
		c0 += bits.OnesCount64(words[i])
	}
	return c0 + c1 + c2 + c3
}

// ExtractWord appends the positions of the set bits of w, offset by
// base, to dst in increasing order.
func ExtractWord(dst []uint32, w uint64, base uint32) []uint32 {
	for w != 0 {
		dst = append(dst, base+uint32(bits.TrailingZeros64(w)))
		w &= w - 1
	}
	return dst
}

// ExtractWords appends the positions of all set bits of words — word i
// contributing base + 64*i + TrailingZeros — to dst in increasing
// order. This is the one shared word -> sorted-uint32s loop behind
// Bitset, the Roaring bitmap containers, and the RLE span streams.
func ExtractWords(dst []uint32, words []uint64, base uint32) []uint32 {
	for i, w := range words {
		p := base + uint32(i)<<6
		for w != 0 {
			dst = append(dst, p+uint32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// batchWords is the chunk size of the fused combine+extract helpers:
// 1 KiB of stack per call, large enough to amortize the per-chunk
// call overhead, small enough to stay resident in L1.
const batchWords = 128

// AndWordsExtract appends the positions of the set bits of a&b (over
// their common prefix) to dst, combining and extracting in cache-sized
// word batches.
func AndWordsExtract(dst []uint32, a, b []uint64, base uint32) []uint32 {
	n := min(len(a), len(b))
	var buf [batchWords]uint64
	for i := 0; i < n; i += batchWords {
		k := min(batchWords, n-i)
		AndWords(buf[:k], a[i:i+k], b[i:i+k])
		dst = ExtractWords(dst, buf[:k], base+uint32(i)<<6)
	}
	return dst
}

// OrWordsExtract appends the positions of the set bits of a|b to dst.
// Words past the shorter operand's end are taken from the longer one.
func OrWordsExtract(dst []uint32, a, b []uint64, base uint32) []uint32 {
	if len(b) > len(a) {
		a, b = b, a
	}
	n := len(b)
	var buf [batchWords]uint64
	for i := 0; i < n; i += batchWords {
		k := min(batchWords, n-i)
		OrWords(buf[:k], a[i:i+k], b[i:i+k])
		dst = ExtractWords(dst, buf[:k], base+uint32(i)<<6)
	}
	return ExtractWords(dst, a[n:], base+uint32(n)<<6)
}

// DrainWords writes the positions of the set bits of words — word i
// contributing base + 64*i + TrailingZeros — into dst in increasing
// order, zeroing each word as it reads it, and returns the number
// written. dst must have room for PopcountWords(words) values. It is
// the dense union's one extraction pass: the accumulator it reads
// comes back clear for the next query, with no separate clear pass.
func DrainWords(dst []uint32, words []uint64, base uint32) int {
	k := 0
	for i, w := range words {
		if w == 0 {
			continue
		}
		words[i] = 0
		p := base + uint32(i)<<6
		for w != 0 {
			dst[k] = p + uint32(bits.TrailingZeros64(w))
			k++
			w &= w - 1
		}
	}
	return k
}
