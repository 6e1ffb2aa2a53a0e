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
// size skew that makes cost ordering matter.
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

// BenchmarkEngineVsSerial compares the serial reference evaluator with
// the pooled engine across codec families and plan shapes. Run with
// -benchmem; the headline claim is allocs/op on SSBMixed.
func BenchmarkEngineVsSerial(b *testing.B) {
	ev := NewEngine(EngineConfig{Parallelism: 1}) // isolate pooling from parallelism
	for _, codec := range []string{"Roaring", "SIMDBP128*", "WAH"} {
		for _, pl := range benchPlans {
			ps := benchPostings(b, codec, pl.terms)
			for _, impl := range []struct {
				name string
				eval func(Expr, []core.Posting) ([]uint32, error)
			}{
				{"Serial", Eval},
				{"Engine", ev.Eval},
			} {
				b.Run(fmt.Sprintf("%s/%s/%s", codec, pl.name, impl.name), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						out, err := impl.eval(pl.plan, ps)
						if err != nil {
							b.Fatal(err)
						}
						sinkU32 = out
					}
				})
			}
		}
	}
}

// BenchmarkEngineParallel measures the parallel fan-out against the
// same engine running serially, on a wide SSB-style plan.
func BenchmarkEngineParallel(b *testing.B) {
	plan := And(Or(Leaf(0), Leaf(1), Leaf(2)), Or(Leaf(3), Leaf(4), Leaf(5)), Or(Leaf(6), Leaf(7)))
	ps := benchPostings(b, "Roaring", 8)
	for _, cfg := range []struct {
		name string
		ev   *Engine
	}{
		{"Serial", NewEngine(EngineConfig{Parallelism: 1})},
		{"Parallel", NewEngine(EngineConfig{ParallelMinWork: 1})},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := cfg.ev.Eval(plan, ps)
				if err != nil {
					b.Fatal(err)
				}
				sinkU32 = out
			}
		})
	}
}

var sinkU32 []uint32

// TestEngineAllocRegression pins the steady-state allocation count of
// engine evaluation: after warm-up, an Eval of the SSB-style plan must
// stay within a small constant budget (result copy + a bounded number
// of codec-internal allocations), and at most half the serial
// evaluator's count — the ISSUE's ≥2x reduction criterion.
func TestEngineAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc counting is timing-insensitive but slow")
	}
	plan := And(Or(Leaf(0), Leaf(1)), Or(Leaf(2), Leaf(3)), Leaf(4))
	for _, codec := range []string{"SIMDBP128*", "Roaring", "WAH"} {
		c, err := codecs.ByName(codec)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(9))
		ps := make([]core.Posting, 5)
		for i := range ps {
			n := 8000
			if i == 4 {
				n = 300
			}
			ps[i], err = c.Compress(randomSorted(r, n))
			if err != nil {
				t.Fatal(err)
			}
		}
		ev := NewEngine(EngineConfig{Parallelism: 1})
		run := func(eval func(Expr, []core.Posting) ([]uint32, error)) float64 {
			// Warm the pools before counting.
			for i := 0; i < 3; i++ {
				if _, err := eval(plan, ps); err != nil {
					t.Fatal(err)
				}
			}
			return testing.AllocsPerRun(50, func() {
				out, err := eval(plan, ps)
				if err != nil {
					t.Fatal(err)
				}
				sinkU32 = out
			})
		}
		engine, serial := run(ev.Eval), run(Eval)
		t.Logf("%s: engine %.1f allocs/op, serial %.1f allocs/op", codec, engine, serial)
		// Budget: 1 result copy + arena churn + codec-internal scratch.
		// WAH's native span algebra allocates its output words internally
		// on every AND/OR in both evaluators, so its floor is higher and
		// the ≥2x criterion applies to the families where the evaluator —
		// not the codec — owns the decode buffers.
		// Under -race sync.Pool drops a quarter of Puts at random, so the
		// absolute count wanders by a pool refill and only the t.Logf above
		// reports it; the relative checks below see the same drops on both
		// sides and keep binding.
		budget := map[string]float64{"SIMDBP128*": 8, "Roaring": 16, "WAH": 48}[codec]
		if engine > budget && !raceEnabled {
			t.Errorf("%s: engine allocates %.1f/op, budget %.1f", codec, engine, budget)
		}
		if codec == "WAH" {
			if engine > serial {
				t.Errorf("WAH: engine %.1f allocs/op regressed over serial %.1f", engine, serial)
			}
		} else if engine > serial/2 {
			t.Errorf("%s: engine %.1f allocs/op is not ≥2x below serial %.1f", codec, engine, serial)
		}
	}
}
