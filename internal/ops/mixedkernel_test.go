package ops

import (
	"errors"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
)

// boundaryDense builds a list whose Roaring representation exercises
// every container kind and bucket-walk edge:
//
//	bucket 0: small array (enum path), ending exactly at 0xFFFF
//	bucket 1: bitmap container (>4096 values), starting exactly at 0x10000
//	bucket 2: absent (gap the kernel must skip)
//	bucket 3: 4096 consecutive values — run container under Roaring+Run,
//	          max-size array under plain Roaring (probe path either way)
//	bucket 4: array >bucketEnumMax (array probe path)
//	bucket 5: singleton at the bucket's last slot (last-container bound)
func boundaryDense() []uint32 {
	var out []uint32
	for i := uint32(0); i < 100; i++ { // bucket 0 array
		out = append(out, i*3)
	}
	out = append(out, 0xFFFF)           // last value of bucket 0
	for i := uint32(0); i < 5000; i++ { // bucket 1 bitmap
		out = append(out, 0x10000+i*13)
	}
	for i := uint32(0); i < 4096; i++ { // bucket 3 run
		out = append(out, 0x30000+i)
	}
	for i := uint32(0); i < 200; i++ { // bucket 4 array > bucketEnumMax
		out = append(out, 0x40000+i*11)
	}
	out = append(out, 0x5FFFF) // bucket 5 singleton at bucket end
	return out
}

// boundarySparse overlaps every region of boundaryDense partially and
// adds values the kernel must reject: inside the gap bucket, between
// containers, and past the last container.
func boundarySparse() []uint32 {
	var out []uint32
	out = append(out, 0, 5, 6, 0xFFFE, 0xFFFF) // bucket 0: hits 0 and 6 and 0xFFFF
	out = append(out, 0x10000, 0x10001, 0x1000D, 0x1FFFF)
	out = append(out, 0x20000, 0x2ABCD)          // gap bucket: no matches possible
	out = append(out, 0x30000, 0x30FFF, 0x31000) // run start, run end, just past
	out = append(out, 0x40000, 0x40005, 0x4000B)
	out = append(out, 0x5FFFE, 0x5FFFF)
	out = append(out, 0x70000, 0x7FFFF) // beyond the last container
	return out
}

func compressAs(t *testing.T, name string, list []uint32) core.Posting {
	t.Helper()
	c, err := codecs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compress(list)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return p
}

func runMixed(t *testing.T, p, q core.Posting) ([]uint32, bool) {
	t.Helper()
	a := getArena()
	defer putArena(a)
	got, ok := mixedIntersect(a, p, q)
	if !ok {
		return nil, false
	}
	return append([]uint32(nil), got...), true
}

func TestMixedKernelContainerBoundaries(t *testing.T) {
	dense := boundaryDense()
	sparse := boundarySparse()
	want := IntersectSorted(dense, sparse)
	if len(want) == 0 {
		t.Fatal("degenerate fixture: empty expected intersection")
	}
	for _, bmName := range []string{"Roaring", "Roaring+Run"} {
		for _, listName := range []string{"SIMDBP128*", "VB", "SIMDPforDelta*"} {
			bp := compressAs(t, bmName, dense)
			lp := compressAs(t, listName, sparse)
			if _, isBucket := bp.(core.BucketProber); !isBucket {
				t.Fatalf("%s posting does not implement BucketProber", bmName)
			}
			if _, isSeeker := lp.(core.Seeker); !isSeeker {
				t.Fatalf("%s posting does not implement Seeker", listName)
			}
			got, ok := runMixed(t, bp, lp)
			if !ok {
				t.Fatalf("%s×%s: kernel did not apply", bmName, listName)
			}
			if !equalU32(got, want) {
				t.Fatalf("%s×%s: got %v\nwant %v", bmName, listName, got, want)
			}
			// Operand order must not matter.
			got, ok = runMixed(t, lp, bp)
			if !ok || !equalU32(got, want) {
				t.Fatalf("%s×%s reversed: got %v (ok=%v)\nwant %v", listName, bmName, got, ok, want)
			}
		}
	}
}

// TestMixedKernelEdgeCases: empty intersections, containment, and the
// 0xFFFF/0x10000 bucket seam in isolation.
func TestMixedKernelEdgeCases(t *testing.T) {
	cases := []struct {
		name          string
		dense, sparse []uint32
	}{
		{"disjoint-buckets",
			[]uint32{1, 2, 3, 0x10000, 0x10001},
			[]uint32{0x20000, 0x20001, 0x30000}},
		{"interleaved-no-hits",
			[]uint32{0, 2, 4, 6, 8},
			[]uint32{1, 3, 5, 7, 9}},
		{"sparse-inside-run",
			seq(0x10000, 0x18000),
			[]uint32{0x10000, 0x14000, 0x17FFF}},
		{"bucket-seam",
			[]uint32{0xFFFE, 0xFFFF, 0x10000, 0x10001},
			[]uint32{0xFFFF, 0x10000}},
		{"list-ends-mid-bitmap",
			seq(0, 0x3000),
			[]uint32{5, 10, 0x100}},
		{"bitmap-ends-before-list",
			[]uint32{5, 10, 0x100},
			append(seq(0, 0x300), 0x90000, 0x90001)},
	}
	for _, tc := range cases {
		want := IntersectSorted(tc.dense, tc.sparse)
		bp := compressAs(t, "Roaring", tc.dense)
		lp := compressAs(t, "SIMDBP128*", tc.sparse)
		got, ok := runMixed(t, bp, lp)
		if !ok {
			t.Fatalf("%s: kernel did not apply", tc.name)
		}
		if !equalU32(normalizeQ(got), normalizeQ(want)) {
			t.Fatalf("%s: got %v want %v", tc.name, got, want)
		}
	}
}

func seq(lo, hi uint32) []uint32 {
	out := make([]uint32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		out = append(out, v)
	}
	return out
}

// TestMixedKernelRandomized cross-checks the kernel against the slice
// reference over random bucket layouts, both dense codecs, and skewed
// list sizes.
func TestMixedKernelRandomized(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 40; iter++ {
		nBuckets := 1 + r.Intn(5)
		var dense []uint32
		for b := 0; b < nBuckets; b++ {
			base := uint32(r.Intn(8)) << 16
			switch r.Intn(3) {
			case 0: // small array
				for i := 0; i < 1+r.Intn(100); i++ {
					dense = append(dense, base+uint32(r.Intn(1<<16)))
				}
			case 1: // bitmap-sized
				for i := 0; i < 5000; i++ {
					dense = append(dense, base+uint32(r.Intn(1<<16)))
				}
			case 2: // run
				start := uint32(r.Intn(1 << 15))
				for i := uint32(0); i < 2000; i++ {
					dense = append(dense, base+start+i)
				}
			}
		}
		sort.Slice(dense, func(i, j int) bool { return dense[i] < dense[j] })
		dense = dedupU32(dense)
		sparse := sampleFrom(r, dense, 1+r.Intn(200))
		want := IntersectSorted(dense, sparse)

		bmName := "Roaring"
		if iter%2 == 1 {
			bmName = "Roaring+Run"
		}
		bp := compressAs(t, bmName, dense)
		lp := compressAs(t, "SIMDBP128*", sparse)
		got, ok := runMixed(t, bp, lp)
		if !ok {
			t.Fatalf("iter %d: kernel did not apply", iter)
		}
		if !equalU32(normalizeQ(got), normalizeQ(want)) {
			t.Fatalf("iter %d (%s): got %d values, want %d\ngot  %v\nwant %v",
				iter, bmName, len(got), len(want), got, want)
		}
	}
}

func dedupU32(a []uint32) []uint32 {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestIntersectUsesMixedKernel pins the wiring: a dense Roaring × sparse
// blocked-list AND through Intersect returns the reference result, in
// both operand orders. The pair shares no native Intersecter, so the
// mixed kernel is the path taken.
func TestIntersectUsesMixedKernel(t *testing.T) {
	dense := boundaryDense()
	sparse := boundarySparse()
	want := IntersectSorted(dense, sparse)
	bp := compressAs(t, "Roaring", dense)
	lp := compressAs(t, "SIMDBP128*", sparse)
	if _, err := bp.(core.Intersecter).IntersectWith(lp); !errors.Is(err, core.ErrIncompatible) {
		t.Fatalf("Roaring×SIMDBP128* native AND: err %v, want ErrIncompatible", err)
	}
	for _, ps := range [][]core.Posting{{bp, lp}, {lp, bp}} {
		got, err := Intersect(ps)
		if err != nil {
			t.Fatal(err)
		}
		if !equalU32(normalizeQ(got), normalizeQ(want)) {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}
