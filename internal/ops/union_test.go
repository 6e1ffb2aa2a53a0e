package ops

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
)

// refUnionMany folds UnionSorted pairwise as the oracle.
func refUnionMany(lists [][]uint32) []uint32 {
	var cur []uint32
	for _, l := range lists {
		cur = UnionSorted(cur, l)
	}
	return cur
}

// TestUnionManyHeapPath: wide unions (>= heapWidth lists) take the heap
// merge and must match the pairwise oracle, duplicates collapsed.
func TestUnionManyHeapPath(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for trial := 0; trial < 6; trial++ {
		k := heapWidth + rng.Intn(12)
		lists := make([][]uint32, k)
		for i := range lists {
			lists[i] = gen.Uniform(rng.Intn(3000), 1<<16, int64(600+trial*50+i))
		}
		want := refUnionMany(lists)
		got := UnionMany(lists)
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: value %d mismatch", trial, i)
			}
		}
	}
}

// TestUnionManyHeapPathSparse is TestUnionManyHeapPath's sparse twin:
// over a 2^28 domain the same list counts stay below the dense cut, so
// UnionMany reaches unionHeapMerge rather than the word array.
func TestUnionManyHeapPathSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 6; trial++ {
		k := heapWidth + rng.Intn(12)
		lists := make([][]uint32, k)
		for i := range lists {
			lists[i] = gen.Uniform(rng.Intn(3000), 1<<28, int64(650+trial*50+i))
		}
		if lo, hi, total := listBounds(lists); denseUnion(total, lo, hi) {
			t.Fatalf("trial %d: inputs take the dense path", trial)
		}
		want := refUnionMany(lists)
		got := UnionMany(lists)
		if !equalU32(got, want) {
			t.Fatalf("trial %d: %d values, want %d", trial, len(got), len(want))
		}
	}
}

// TestUnionManyHeapEdgeCases: empty operands, identical lists, single
// survivors.
func TestUnionManyHeapEdgeCases(t *testing.T) {
	same := []uint32{5, 10, 15}
	lists := make([][]uint32, heapWidth+2)
	for i := range lists {
		if i%2 == 0 {
			lists[i] = same
		} // odd entries stay nil
	}
	got := UnionMany(lists)
	if len(got) != 3 || got[0] != 5 || got[2] != 15 {
		t.Fatalf("got %v", got)
	}
	// All empty.
	empty := make([][]uint32, heapWidth)
	if got := UnionMany(empty); len(got) != 0 {
		t.Fatalf("all-empty union = %v", got)
	}
}

// BenchmarkUnionManyWide compares realistic wide unions (k=16) through
// the public entry point.
func BenchmarkUnionManyWide(b *testing.B) {
	lists := make([][]uint32, 16)
	for i := range lists {
		lists[i] = gen.Uniform(20000, 1<<20, int64(700+i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = UnionMany(lists)
	}
}

var benchSink []uint32
