package ops

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
)

func TestGallopGEQ(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for iter := 0; iter < 200; iter++ {
		a := randomSorted(r, r.Intn(500))
		lo := 0
		if len(a) > 0 {
			lo = r.Intn(len(a) + 1)
		}
		var target uint32
		switch r.Intn(3) {
		case 0:
			target = uint32(r.Intn(1 << 14)) // arbitrary, maybe absent
		case 1:
			if len(a) > 0 {
				target = a[r.Intn(len(a))] // guaranteed present
			}
		case 2:
			target = 1<<32 - 1 // past the end
		}
		got := GallopGEQ(a, lo, target)
		want := lo + sort.Search(len(a)-lo, func(i int) bool { return a[lo+i] >= target })
		if got != want {
			t.Fatalf("GallopGEQ(len=%d, lo=%d, target=%d) = %d, want %d", len(a), lo, target, got, want)
		}
	}
}

// gapSorted generates n strictly increasing values with random gaps in
// [1, maxGap] — O(n), unlike the quickcheck helper's map-based
// generator, so skewed pairs up to 10^4:1 stay cheap.
func gapSorted(r *rand.Rand, n, maxGap int) []uint32 {
	out := make([]uint32, n)
	v := uint32(0)
	for i := range out {
		v += uint32(1 + r.Intn(maxGap))
		out[i] = v
	}
	return out
}

// sampleFrom picks ~1/3 of src (guaranteed intersection hits) plus a
// few values off-grid, sorted and deduplicated.
func sampleFrom(r *rand.Rand, src []uint32, n int) []uint32 {
	seen := map[uint32]struct{}{}
	for len(seen) < n {
		if r.Intn(3) > 0 && len(src) > 0 {
			seen[src[r.Intn(len(src))]] = struct{}{}
		} else {
			seen[uint32(r.Intn(len(src)*4+4096))] = struct{}{}
		}
	}
	out := make([]uint32, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// skewRatios spans the issue's 1:1 → 1:10^4 range, straddling the
// gallopRatio crossover in both directions.
var skewRatios = []int{1, 8, gallopRatio, gallopRatio + 1, 100, 1000, 10000}

// TestIntersectAdaptiveSkewProperty: the adaptive in-place kernel is
// bit-identical to the linear reference across skews, both argument
// orders, regardless of which side gallops.
func TestIntersectAdaptiveSkewProperty(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, ratio := range skewRatios {
		for iter := 0; iter < 8; iter++ {
			large := gapSorted(r, 30*ratio, 3)
			small := sampleFrom(r, large, 20+r.Intn(11))
			want := IntersectSorted(small, large)

			got := intersectAdaptiveInPlace(append([]uint32(nil), small...), large)
			if !equalU32(got, want) {
				t.Fatalf("ratio 1:%d small-first: got %v want %v", ratio, got, want)
			}
			got = intersectAdaptiveInPlace(append([]uint32(nil), large...), small)
			if !equalU32(got, want) {
				t.Fatalf("ratio 1:%d large-first: got %v want %v", ratio, got, want)
			}
		}
	}
}

// TestGallopingSvSMatchesIntersect: end to end through compressed
// postings — Intersect's SvS probing must stay bit-identical to the
// plain-list reference across skew ratios up to 1:10^4.
func TestGallopingSvSMatchesIntersect(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, ratio := range skewRatios {
		for _, names := range [][2]string{
			{"SIMDBP128*", "SIMDBP128*"},
			{"VB", "SIMDPforDelta*"},
			{"List", "SIMDBP128*"},
		} {
			large := gapSorted(r, 30*ratio, 3)
			small := sampleFrom(r, large, 30)
			want := IntersectSorted(small, large)

			ps := make([]core.Posting, 2)
			for i, list := range [][]uint32{small, large} {
				c, err := codecs.ByName(names[i])
				if err != nil {
					t.Fatal(err)
				}
				ps[i], err = c.Compress(list)
				if err != nil {
					t.Fatalf("%s: %v", names[i], err)
				}
			}
			ref, err := Intersect(ps)
			if err != nil {
				t.Fatal(err)
			}
			if !equalU32(normalizeQ(ref), want) {
				t.Fatalf("ratio 1:%d %v: ops.Intersect diverged: got %v want %v", ratio, names, ref, want)
			}
		}
	}
}
