package ops

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/gen"
)

func compressAll(t *testing.T, c core.Codec, lists [][]uint32) []core.Posting {
	t.Helper()
	out := make([]core.Posting, len(lists))
	for i, l := range lists {
		p, err := c.Compress(l)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		out[i] = p
	}
	return out
}

func refIntersectMany(lists [][]uint32) []uint32 {
	cur := append([]uint32(nil), lists[0]...)
	for _, l := range lists[1:] {
		cur = IntersectSorted(cur, l)
	}
	return cur
}

// TestAllCodecsAgreeOnIntersection is the cross-codec differential
// test: every one of the 24 methods must produce the same AND result.
func TestAllCodecsAgreeOnIntersection(t *testing.T) {
	lists := [][]uint32{
		gen.Uniform(500, 1<<14, 1),
		gen.Uniform(5000, 1<<14, 2),
		gen.MarkovN(3000, 1<<14, 8, 3),
	}
	want := refIntersectMany(lists)
	if len(want) == 0 {
		t.Fatal("test workload should have a non-empty intersection")
	}
	for _, c := range codecs.All() {
		ps := compressAll(t, c, lists)
		got, err := Intersect(ps)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !equalU32(got, want) {
			t.Errorf("%s: intersection mismatch: got %d values, want %d",
				c.Name(), len(got), len(want))
		}
	}
}

// TestAllCodecsAgreeOnUnion is the OR differential test.
func TestAllCodecsAgreeOnUnion(t *testing.T) {
	lists := [][]uint32{
		gen.Uniform(400, 1<<17, 4),
		gen.MarkovN(2000, 1<<17, 8, 5),
		gen.Uniform(3000, 1<<17, 6),
	}
	want := UnionMany(lists)
	for _, c := range codecs.All() {
		ps := compressAll(t, c, lists)
		got, err := Union(ps)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !equalU32(got, want) {
			t.Errorf("%s: union mismatch: got %d values, want %d",
				c.Name(), len(got), len(want))
		}
	}
}

// TestSvSSkewedRatio exercises the skip-probe path (|L2|/|L1| large).
func TestSvSSkewedRatio(t *testing.T) {
	short := gen.Uniform(50, 1<<20, 7)
	long := gen.Uniform(200000, 1<<20, 8)
	want := IntersectSorted(short, long)
	for _, c := range codecs.Lists() {
		ps := compressAll(t, c, [][]uint32{short, long})
		got, err := Intersect(ps)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !equalU32(got, want) {
			t.Errorf("%s: skewed intersect mismatch", c.Name())
		}
	}
}

// TestEmptyIntersection: disjoint lists intersect to nothing.
func TestEmptyIntersection(t *testing.T) {
	a := []uint32{1, 3, 5, 7}
	b := []uint32{0, 2, 4, 6, 8}
	for _, c := range codecs.All() {
		ps := compressAll(t, c, [][]uint32{a, b})
		got, err := Intersect(ps)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if len(got) != 0 {
			t.Errorf("%s: want empty, got %v", c.Name(), got)
		}
	}
}

// TestPlanEval checks the combined query shape of SSB Q3.4:
// (L0 ∪ L1) ∩ (L2 ∪ L3) ∩ L4.
func TestPlanEval(t *testing.T) {
	lists := [][]uint32{
		gen.Uniform(800, 1<<16, 10),
		gen.Uniform(800, 1<<16, 11),
		gen.Uniform(900, 1<<16, 12),
		gen.Uniform(900, 1<<16, 13),
		gen.Uniform(20000, 1<<16, 14),
	}
	want := refIntersectMany([][]uint32{
		UnionMany(lists[0:2]),
		UnionMany(lists[2:4]),
		lists[4],
	})
	plan := And(Or(Leaf(0), Leaf(1)), Or(Leaf(2), Leaf(3)), Leaf(4))
	for _, c := range codecs.All() {
		ps := compressAll(t, c, lists)
		got, err := Eval(plan, ps)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !equalU32(got, want) {
			t.Errorf("%s: plan result mismatch: got %d want %d", c.Name(), len(got), len(want))
		}
	}
}

// TestPlanSingleLeaf and nested plans.
func TestPlanShapes(t *testing.T) {
	lists := [][]uint32{
		{1, 5, 9},
		{5, 9, 11},
		{9, 11, 13},
	}
	c, _ := codecs.ByName("Roaring")
	ps := compressAll(t, c, lists)
	got, err := Eval(Leaf(1), ps)
	if err != nil || !equalU32(got, lists[1]) {
		t.Fatalf("leaf eval: %v %v", got, err)
	}
	got, err = Eval(And(Leaf(0), Leaf(1), Leaf(2)), ps)
	if err != nil || !equalU32(got, []uint32{9}) {
		t.Fatalf("and eval: %v %v", got, err)
	}
	got, err = Eval(Or(And(Leaf(0), Leaf(1)), Leaf(2)), ps)
	if err != nil || !equalU32(got, []uint32{5, 9, 11, 13}) {
		t.Fatalf("nested eval: %v %v", got, err)
	}
}

func TestReferenceOps(t *testing.T) {
	a := []uint32{1, 2, 3, 10}
	b := []uint32{2, 3, 4}
	if got := IntersectSorted(a, b); !equalU32(got, []uint32{2, 3}) {
		t.Errorf("IntersectSorted = %v", got)
	}
	if got := UnionSorted(a, b); !equalU32(got, []uint32{1, 2, 3, 4, 10}) {
		t.Errorf("UnionSorted = %v", got)
	}
	if got := UnionMany([][]uint32{{1}, {2}, {1, 3}}); !equalU32(got, []uint32{1, 2, 3}) {
		t.Errorf("UnionMany = %v", got)
	}
	if got := UnionMany(nil); got != nil {
		t.Errorf("UnionMany(nil) = %v", got)
	}
}

// TestIntersectRandomizedAgainstReference fuzzes k-way intersection.
func TestIntersectRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 8; trial++ {
		k := 2 + rng.Intn(3)
		lists := make([][]uint32, k)
		for i := range lists {
			lists[i] = gen.Uniform(100+rng.Intn(5000), 1<<15, int64(trial*10+i))
		}
		want := refIntersectMany(lists)
		for _, name := range []string{"Roaring", "WAH", "PEF", "SIMDBP128*", "VB"} {
			c, err := codecs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ps := compressAll(t, c, lists)
			got, err := Intersect(ps)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !equalU32(got, want) {
				t.Errorf("%s trial %d: mismatch", name, trial)
			}
		}
	}
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

// TestIntersectAnswerIsCallerOwned: Intersect's answer is a buffer
// nothing else holds, on every path. Each codec meets itself (the native
// pair for bitmaps, decode-and-probe in place for lists), Roaring (the
// mixed bucket×seeker kernel for lists), SIMDBP128* (the mixed kernel
// for Roaring, decode-and-probe for the other bitmaps) and WAH (the
// decode and the bitmap-vs-list probe), with 2 and 3 operands. Writing
// into an answer must change neither an operand nor a later identical
// answer, the later answer must not overwrite the earlier one, the
// operands' order must survive, and an empty answer is non-nil.
func TestIntersectAnswerIsCallerOwned(t *testing.T) {
	short := gen.Uniform(400, 1<<18, 1)
	long := [][]uint32{gen.Uniform(40000, 1<<18, 2), gen.Uniform(30000, 1<<18, 3)}
	// Odd values against even ones: the same shapes with an empty answer.
	odd := make([]uint32, len(short))
	for i, v := range short {
		odd[i] = 2*(v>>1) + 1
	}
	odd = slices.Compact(odd)
	even := make([][]uint32, len(long))
	for i, l := range long {
		even[i] = make([]uint32, len(l))
		for j, v := range l {
			even[i][j] = v &^ 1
		}
		even[i] = slices.Compact(even[i])
	}
	compress := func(name string, l []uint32) core.Posting {
		c, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := c.Compress(l)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return p
	}
	for _, codec := range append(codecs.All(), codecs.Extensions()...) {
		for _, partner := range []string{codec.Name(), "Roaring", "SIMDBP128*", "WAH"} {
			for _, c := range []struct {
				first []uint32
				rest  [][]uint32
			}{{short, long}, {odd, even}} {
				for n := 2; n <= 3; n++ {
					lists := append([][]uint32{c.first}, c.rest[:n-1]...)
					ps := []core.Posting{compress(codec.Name(), lists[0])}
					for _, l := range lists[1:] {
						ps = append(ps, compress(partner, l))
					}
					order := slices.Clone(ps)
					want := refIntersectMany(lists)
					name := codec.Name() + "×" + partner
					got, err := Intersect(ps)
					switch {
					case err != nil:
						t.Fatalf("%s, %d operands: %v", name, n, err)
					case got == nil:
						t.Fatalf("%s, %d operands: nil answer", name, n)
					case !slices.Equal(got, want):
						t.Fatalf("%s, %d operands: got %d values, want %d", name, n, len(got), len(want))
					case !slices.Equal(ps, order):
						t.Fatalf("%s, %d operands: Intersect reordered the caller's operands", name, n)
					}
					for i := range got {
						got[i] = ^got[i]
					}
					for i, p := range ps {
						if !slices.Equal(p.Decompress(), lists[i]) {
							t.Fatalf("%s, %d operands: writing into the answer changed operand %d", name, n, i)
						}
					}
					if again, err := Intersect(ps); err != nil || !slices.Equal(again, want) {
						t.Fatalf("%s, %d operands: writing into the answer changed a later one (%v)", name, n, err)
					}
					for i, v := range want {
						if got[i] != ^v {
							t.Fatalf("%s, %d operands: a later answer overwrote an earlier one", name, n)
						}
					}
				}
			}
		}
	}
}
