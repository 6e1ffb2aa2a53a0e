package ops

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
)

// benchPlans are the query shapes from the paper's query workloads: a
// 2-term conjunction (Fig.8), a multi-term disjunction (Fig.9), and an
// SSB-style mixed plan (AND of dimension-filter ORs, Fig.11/12).
var benchPlans = []struct {
	name  string
	terms int
	plan  Expr
}{
	{"AND2", 2, And(Leaf(0), Leaf(1))},
	{"OR4", 4, Or(Leaf(0), Leaf(1), Leaf(2), Leaf(3))},
	{"SSBMixed", 5, And(Or(Leaf(0), Leaf(1)), Or(Leaf(2), Leaf(3)), Leaf(4))},
}

// benchPostings builds deterministic posting lists for one codec: one
// selective list (the "dimension filter") and several larger ones, the
// size skew that makes operand ordering matter.
func benchPostings(b *testing.B, codec string, terms int) []core.Posting {
	b.Helper()
	c, err := codecs.ByName(codec)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	ps := make([]core.Posting, terms)
	for i := range ps {
		n := 20000
		if i == terms-1 {
			n = 500 // selective last term
		}
		ps[i], err = c.Compress(randomSorted(r, n))
		if err != nil {
			b.Fatal(err)
		}
	}
	return ps
}

// BenchmarkEval times plan evaluation across codec families and plan
// shapes. Run with -benchmem for allocs/op.
func BenchmarkEval(b *testing.B) {
	for _, codec := range []string{"Roaring", "SIMDBP128*", "WAH"} {
		for _, pl := range benchPlans {
			ps := benchPostings(b, codec, pl.terms)
			b.Run(fmt.Sprintf("%s/%s", codec, pl.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					out, err := Eval(pl.plan, ps)
					if err != nil {
						b.Fatal(err)
					}
					sinkU32 = out
				}
			})
		}
	}
}

var sinkU32 []uint32

// TestIntersectAllocs pins the steady-state allocation count of
// Intersect on three operands: the one decode Intersect returns as the
// answer, the probe iterators, and the codec's own native-operator
// allocations. Any new per-call allocation on the served AND path fails
// here.
func TestIntersectAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is timing-insensitive but slow")
	}
	// Budgets are the measured steady-state counts; WAH's native span
	// algebra allocates its output words internally.
	budget := map[string]float64{"SIMDBP128*": 3, "Roaring": 4, "WAH": 7}
	for _, codec := range []string{"SIMDBP128*", "Roaring", "WAH"} {
		c, err := codecs.ByName(codec)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(9))
		ps := make([]core.Posting, 3)
		for i, n := range []int{8000, 8000, 300} {
			ps[i], err = c.Compress(randomSorted(r, n))
			if err != nil {
				t.Fatal(err)
			}
		}
		// Warm the pool before counting.
		for i := 0; i < 3; i++ {
			if _, err := Intersect(ps); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			out, err := Intersect(ps)
			if err != nil {
				t.Fatal(err)
			}
			sinkU32 = out
		})
		t.Logf("%s: %.1f allocs/op", codec, allocs)
		// Under -race sync.Pool drops a quarter of Puts at random, so the
		// count wanders by a pool refill and only the t.Logf above
		// reports it.
		if allocs > budget[codec] && !raceEnabled {
			t.Errorf("%s: Intersect allocates %.1f/op, budget %.1f", codec, allocs, budget[codec])
		}
	}
}
