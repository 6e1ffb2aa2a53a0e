package kernels

import (
	"math/bits"
	"math/rand"
	"testing"
)

func randWords(rng *rand.Rand, n int) []uint64 {
	w := make([]uint64, n)
	for i := range w {
		switch rng.Intn(4) {
		case 0:
			w[i] = 0
		case 1:
			w[i] = ^uint64(0)
		default:
			w[i] = rng.Uint64()
		}
	}
	return w
}

func TestWordOps(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 200} {
		a := randWords(rng, n)
		b := randWords(rng, n)
		and := make([]uint64, n)
		or := make([]uint64, n)
		andnot := make([]uint64, n)
		AndWords(and, a, b)
		OrWords(or, a, b)
		AndNotWords(andnot, a, b)
		pc := 0
		for i := 0; i < n; i++ {
			if and[i] != a[i]&b[i] {
				t.Fatalf("n=%d: AndWords[%d] = %x, want %x", n, i, and[i], a[i]&b[i])
			}
			if or[i] != a[i]|b[i] {
				t.Fatalf("n=%d: OrWords[%d] = %x, want %x", n, i, or[i], a[i]|b[i])
			}
			if andnot[i] != a[i]&^b[i] {
				t.Fatalf("n=%d: AndNotWords[%d] = %x, want %x", n, i, andnot[i], a[i]&^b[i])
			}
			pc += bits.OnesCount64(a[i])
		}
		if got := PopcountWords(a); got != pc {
			t.Fatalf("n=%d: PopcountWords = %d, want %d", n, got, pc)
		}
	}
}

// naiveExtract is the single-word loop the codecs used before kernels.
func naiveExtract(out []uint32, words []uint64, base uint32) []uint32 {
	for i, w := range words {
		p := base + uint32(i)*64
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			out = append(out, p+uint32(tz))
			w &= w - 1
		}
	}
	return out
}

func equalU32(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestExtractWords(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{0, 1, 3, 64, 129, 300} {
		words := randWords(rng, n)
		base := rng.Uint32() &^ 0x3f // word-aligned base as all callers use
		want := naiveExtract(nil, words, base)
		got := ExtractWords(nil, words, base)
		if !equalU32(got, want) {
			t.Fatalf("n=%d: ExtractWords mismatch (%d vs %d values)", n, len(got), len(want))
		}
		var single []uint32
		for i, w := range words {
			single = ExtractWord(single, w, base+uint32(i)*64)
		}
		if !equalU32(single, want) {
			t.Fatalf("n=%d: ExtractWord mismatch", n)
		}
	}
}

// TestDrainWords: DrainWords extracts what ExtractWords does, fills an
// exactly sized destination, and leaves every word zero.
func TestDrainWords(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 3, 64, 129, 300} {
		words := randWords(rng, n)
		base := rng.Uint32() &^ 0xffff
		want := naiveExtract(nil, words, base)
		got := make([]uint32, PopcountWords(words))
		if k := DrainWords(got, words, base); k != len(got) || !equalU32(got, want) {
			t.Fatalf("n=%d: DrainWords mismatch (%d of %d values)", n, k, len(want))
		}
		if PopcountWords(words) != 0 {
			t.Fatalf("n=%d: words not cleared", n)
		}
	}
	// The top word of the 32-bit domain.
	top := []uint64{1<<63 | 1}
	got := make([]uint32, 2)
	DrainWords(got, top, 1<<32-64)
	if got[0] != 1<<32-64 || got[1] != 1<<32-1 {
		t.Fatalf("top word: %v", got)
	}
}

func TestCombineExtract(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, na := range []int{0, 1, 5, 127, 128, 129, 400} {
		for _, nb := range []int{0, 3, 128, 260} {
			a := randWords(rng, na)
			b := randWords(rng, nb)
			n := min(na, nb)
			andBuf := make([]uint64, n)
			AndWords(andBuf, a, b)
			wantAnd := naiveExtract(nil, andBuf, 0)
			if got := AndWordsExtract(nil, a, b, 0); !equalU32(got, wantAnd) {
				t.Fatalf("na=%d nb=%d: AndWordsExtract mismatch", na, nb)
			}
			long, short := a, b
			if len(b) > len(a) {
				long, short = b, a
			}
			orBuf := make([]uint64, len(long))
			copy(orBuf, long)
			for i := range short {
				orBuf[i] |= short[i]
			}
			wantOr := naiveExtract(nil, orBuf, 0)
			if got := OrWordsExtract(nil, a, b, 0); !equalU32(got, wantOr) {
				t.Fatalf("na=%d nb=%d: OrWordsExtract mismatch", na, nb)
			}
		}
	}
}
