package index

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestFreqListRoundTrip: every frequency from 1 to 65535 round-trips,
// alone and in one list, and so do random lists dominated by ones.
func TestFreqListRoundTrip(t *testing.T) {
	all := make([]uint16, 0, 65535)
	for f := 1; f <= 65535; f++ {
		one := []uint16{uint16(f)}
		got, err := decodeFreqList(appendFreqList(nil, one, 1), 1)
		if err != nil || got[0] != one[0] {
			t.Fatalf("frequency %d: got %v, %v", f, got, err)
		}
		all = append(all, uint16(f))
	}
	got, err := decodeFreqList(appendFreqList(nil, all, len(all)), len(all))
	if err != nil || !reflect.DeepEqual(got, all) {
		t.Fatalf("1..65535 in one list: %v", err)
	}
	rng := rand.New(rand.NewSource(49))
	for n := 0; n < 300; n++ {
		freqs := make([]uint16, n)
		for i := range freqs {
			freqs[i] = 1
			if rng.Intn(6) == 0 {
				freqs[i] = uint16(1 + rng.Intn(1<<uint(rng.Intn(17))))
			}
		}
		list := appendFreqList([]byte{0xAA}, freqs, n)[1:] // appends after what dst holds
		got, err := decodeFreqList(list, n)
		if err != nil || (n > 0 && !reflect.DeepEqual(got, freqs)) {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestFreqListSize: a frequency of 1 costs one bit, and x costs
// 2⌊log₂ x⌋+1 bits, rounded up to whole bytes per list.
func TestFreqListSize(t *testing.T) {
	for _, c := range []struct {
		freqs []uint16
		bytes int
	}{
		{nil, 0},
		{[]uint16{1}, 1},
		{make16(8, 1), 1},
		{make16(9, 1), 2},
		{make16(64, 1), 8},
		{[]uint16{2, 3}, 1},          // 3 + 3 bits
		{[]uint16{65535}, 4},         // 31 bits
		{[]uint16{65535, 65535}, 8},  // 62 bits
		{[]uint16{65535, 1, 1}, 5},   // 33 bits
		{[]uint16{4, 4, 4, 4, 4}, 4}, // 25 bits
	} {
		if got := len(appendFreqList(nil, c.freqs, len(c.freqs))); got != c.bytes {
			t.Errorf("%v: %d bytes, want %d", c.freqs, got, c.bytes)
		}
	}
}

func make16(n int, v uint16) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestFreqListMissingIsOne: frequencies past the end of freqs, and
// zeros, are written as 1.
func TestFreqListMissingIsOne(t *testing.T) {
	got, err := decodeFreqList(appendFreqList(nil, []uint16{3, 0}, 4), 4)
	if err != nil || !reflect.DeepEqual(got, []uint16{3, 1, 1, 1}) {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestFreqListCorrupt: only the exact bytes the encoder writes decode.
func TestFreqListCorrupt(t *testing.T) {
	good := appendFreqList(nil, []uint16{1, 5, 1, 1, 300, 2}, 6) // 28 bits
	cases := map[string]struct {
		src []byte
		n   int
	}{
		"truncated":         {good[:len(good)-1], 6},
		"trailing byte":     {append(append([]byte{}, good...), 0), 6},
		"padding bit set":   {append(append([]byte{}, good[:3]...), good[3]|0x80), 6},
		"count too high":    {good, 7},
		"count too low":     {good, 5},
		"empty for one":     {nil, 1},
		"bytes for none":    {[]byte{0}, 0},
		"exponent above 15": {[]byte{0, 0, 0, 0, 0xff}, 1},
		"all zero":          {make([]byte, 8), 1},
	}
	for name, c := range cases {
		if _, err := decodeFreqList(c.src, c.n); !errors.Is(err, errFreqList) {
			t.Errorf("%s: err = %v, want errFreqList", name, err)
		}
	}
	if got, err := decodeFreqList(nil, 0); err != nil || len(got) != 0 {
		t.Fatalf("empty list: %v, %v", got, err)
	}
}

// BenchmarkFreqListDecode decodes a 10 000-posting list in which 85 %
// of the frequencies are 1, the shape of the generated corpora.
func BenchmarkFreqListDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	freqs := make([]uint16, 10000)
	for i := range freqs {
		freqs[i] = 1
		if rng.Intn(100) >= 85 {
			freqs[i] = uint16(2 + rng.Intn(8))
		}
	}
	list := appendFreqList(nil, freqs, len(freqs))
	b.SetBytes(int64(2 * len(freqs)))
	for i := 0; i < b.N; i++ {
		if _, err := decodeFreqList(list, len(freqs)); err != nil {
			b.Fatal(err)
		}
	}
}
