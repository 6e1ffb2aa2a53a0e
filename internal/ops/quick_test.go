package ops

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/codecs"
	"repro/internal/core"
)

// opsInput generates a random pair of sorted sets plus a codec choice
// per operand, so quick exercises same-codec, mixed-codec, and
// mixed-family operator paths together.
type opsInput struct {
	A, B           []uint32
	CodecA, CodecB string
}

// Generate implements quick.Generator.
func (opsInput) Generate(r *rand.Rand, size int) reflect.Value {
	names := codecs.Names()
	in := opsInput{
		A:      randomSorted(r, r.Intn(size*20+1)),
		B:      randomSorted(r, r.Intn(size*20+1)),
		CodecA: names[r.Intn(len(names))],
		CodecB: names[r.Intn(len(names))],
	}
	return reflect.ValueOf(in)
}

func randomSorted(r *rand.Rand, n int) []uint32 {
	seen := map[uint32]struct{}{}
	for len(seen) < n {
		seen[uint32(r.Intn(1<<18))] = struct{}{}
	}
	out := make([]uint32, 0, n)
	for v := range seen {
		out = append(out, v)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestQuickOpsMatchReference: Intersect and Union over arbitrary codec
// pairings equal the reference set algebra.
func TestQuickOpsMatchReference(t *testing.T) {
	prop := func(in opsInput) bool {
		ca, err := codecs.ByName(in.CodecA)
		if err != nil {
			return false
		}
		cb, err := codecs.ByName(in.CodecB)
		if err != nil {
			return false
		}
		pa, err := ca.Compress(in.A)
		if err != nil {
			return false
		}
		pb, err := cb.Compress(in.B)
		if err != nil {
			return false
		}
		and, err := Intersect([]core.Posting{pa, pb})
		if err != nil {
			return false
		}
		if !equalU32(normalizeQ(and), IntersectSorted(in.A, in.B)) {
			return false
		}
		or, err := Union([]core.Posting{pa, pb})
		if err != nil {
			return false
		}
		return equalU32(normalizeQ(or), UnionSorted(in.A, in.B))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func normalizeQ(a []uint32) []uint32 {
	if a == nil {
		return []uint32{}
	}
	return a
}

// planInput seeds a random mixed-codec posting set for the
// engine-vs-serial property below.
type planInput struct {
	Seed int64
}

// Generate implements quick.Generator.
func (planInput) Generate(r *rand.Rand, size int) reflect.Value {
	return reflect.ValueOf(planInput{Seed: r.Int63()})
}

// TestQuickEngineMatchesSerial: for random posting sets over mixed
// codec families, Engine.Union and the serial Union are extensionally
// equal.
func TestQuickEngineMatchesSerial(t *testing.T) {
	ev := Default()
	prop := func(in planInput) bool {
		r := rand.New(rand.NewSource(in.Seed))
		ps := randomPostings(t, r, 2+r.Intn(5), 300)
		want, err := Union(ps)
		if err != nil {
			return false
		}
		got, err := ev.Union(ps)
		if err != nil {
			return false
		}
		return equalU32(normalizeQ(got), normalizeQ(want))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
