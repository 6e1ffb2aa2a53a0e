package index

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestTombSetMatchesMap checks every tombSet operation against the
// plain map of docid to epoch bound it replaces, over random sets and
// segments, and that with leaves the set it was called on as it was.
func TestTombSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	same := func(a, b tombSet) bool { return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b)) }
	for iter := 0; iter < 200; iter++ {
		ref := map[uint32]int{}
		var ts tombSet
		for i := rng.Intn(40); i > 0; i-- {
			doc, bound := uint32(rng.Intn(200)), rng.Intn(4)
			before := append(tombSet(nil), ts...)
			next := ts.with(doc, bound)
			if !same(ts, before) {
				t.Fatalf("with(%d, %d) edited the set it was called on", doc, bound)
			}
			ts, ref[doc] = next, bound
		}
		if !reflect.DeepEqual(ts.bounds(), ref) || !same(tombsFromMap(ref), ts) {
			t.Fatalf("set %v does not round-trip map %v", ts, ref)
		}
		masked := func(doc uint32, epoch int) bool {
			b, ok := ref[doc]
			return ok && b >= epoch
		}

		epoch := rng.Intn(4)
		var ids []uint32
		for d := uint32(0); d < 200; d++ {
			if rng.Intn(3) == 0 {
				ids = append(ids, d)
			}
		}
		want, count := []uint32{}, 0
		m := NewMemSegment()
		for _, d := range ids {
			m.Add(d, "x")
			if masked(d, epoch) {
				count++
			} else {
				want = append(want, d)
			}
		}
		if got := ts.mask(append([]uint32{}, ids...), epoch); !equalU32s(got, want) {
			t.Fatalf("mask(%v, %d) = %v, want %v", ids, epoch, got, want)
		}
		if got := ts.countIn(rangesFromIDs(ids), epoch); got != count {
			t.Fatalf("countIn = %d, want %d", got, count)
		}
		if got := ts.countHeld(m, epoch); got != count {
			t.Fatalf("countHeld = %d, want %d", got, count)
		}
		for d := uint32(0); d < 200; d++ {
			if ts.masked(d, epoch) != masked(d, epoch) {
				t.Fatalf("masked(%d, %d) disagrees with the map", d, epoch)
			}
		}

		applied := tombSet{}
		for _, tb := range ts {
			if rng.Intn(2) == 0 {
				applied = append(applied, tomb{tb.doc, tb.bound + rng.Intn(2)})
			}
		}
		var left tombSet
		for _, tb := range ts {
			if i := applied.search(tb.doc); i == len(applied) || applied[i] != tb {
				left = append(left, tb)
			}
		}
		if got := ts.without(applied); !same(got, left) {
			t.Fatalf("without = %v, want %v", got, left)
		}
	}
}
