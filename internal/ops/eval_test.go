package ops

import (
	"math/rand"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/gen"
)

// engineCodecs are the families exercised by the plan tests: a
// Roaring-style bitmap, an RLE bitmap, a SIMD-layout list, and PEF
// (partition-native, no block frame) — the mix covers the native-AND,
// span, skip-probe, and iterator paths.
var engineCodecs = []string{"Roaring", "WAH", "SIMDBP128*", "VB", "PEF", "List"}

// randomPostings compresses n random sorted sets under random codec
// choices from engineCodecs.
func randomPostings(t testing.TB, r *rand.Rand, n, maxLen int) []core.Posting {
	t.Helper()
	ps := make([]core.Posting, n)
	for i := range ps {
		c, err := codecs.ByName(engineCodecs[r.Intn(len(engineCodecs))])
		if err != nil {
			t.Fatal(err)
		}
		ps[i], err = c.Compress(randomSorted(r, r.Intn(maxLen)))
		if err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

// randomExpr builds a random plan over nPostings leaves: interior nodes
// alternate AND/OR randomly with 2..4 children down to a depth limit.
func randomExpr(r *rand.Rand, nPostings, depth int) Expr {
	if depth == 0 || r.Intn(3) == 0 {
		return Leaf(r.Intn(nPostings))
	}
	n := 2 + r.Intn(3)
	args := make([]Expr, n)
	for i := range args {
		args[i] = randomExpr(r, nPostings, depth-1)
	}
	op := OpAnd
	if r.Intn(2) == 0 {
		op = OpOr
	}
	return Expr{Op: op, Args: args}
}

// naiveEval is the plan reference: every leaf decompressed, every node
// folded pairwise with the plain-list merges.
func naiveEval(e Expr, ps []core.Posting) []uint32 {
	if e.Op == OpLeaf {
		return ps[e.Leaf].Decompress()
	}
	cur := naiveEval(e.Args[0], ps)
	for _, a := range e.Args[1:] {
		if e.Op == OpAnd {
			cur = IntersectSorted(cur, naiveEval(a, ps))
		} else {
			cur = UnionSorted(cur, naiveEval(a, ps))
		}
	}
	return cur
}

// TestEvalMatchesNaive: randomized nested plans over mixed codec
// families evaluate to exactly the naive reference — the native
// compressed-form operators, SvS probing and the mixed-node path of
// Eval against decompress-and-merge.
func TestEvalMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 100; iter++ {
		ps := randomPostings(t, r, 2+r.Intn(6), 400)
		plan := randomExpr(r, len(ps), 3)
		got, err := Eval(plan, ps)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		if want := naiveEval(plan, ps); !equalU32(normalizeQ(got), normalizeQ(want)) {
			t.Fatalf("iter %d: Eval diverged from naive\nplan: %+v\ngot  %v\nwant %v",
				iter, plan, got, want)
		}
	}
}

// orAll is the flat OR plan over every posting, the shape Engine.Union
// answers.
func orAll(n int) Expr {
	leaves := make([]Expr, n)
	for i := range leaves {
		leaves[i] = Leaf(i)
	}
	return Or(leaves...)
}

// TestEngineMatchesSerialEval: the remaining Engine, whose Union the
// benchmark times as ops.union_engine_us, answers exactly what the
// serial Eval of the flat OR plan and the naive reference answer, over
// random postings from mixed codec families.
func TestEngineMatchesSerialEval(t *testing.T) {
	ev := Default()
	r := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		ps := randomPostings(t, r, 2+r.Intn(6), 400)
		plan := orAll(len(ps))
		want, err := Eval(plan, ps)
		if err != nil {
			t.Fatalf("iter %d: serial: %v", iter, err)
		}
		if naive := naiveEval(plan, ps); !equalU32(normalizeQ(want), normalizeQ(naive)) {
			t.Fatalf("iter %d: serial Eval diverged from naive\ngot  %v\nwant %v", iter, want, naive)
		}
		got, err := ev.Union(ps)
		if err != nil {
			t.Fatalf("iter %d: engine: %v", iter, err)
		}
		if !equalU32(normalizeQ(got), normalizeQ(want)) {
			t.Fatalf("iter %d: engine diverged from serial\ngot  %v\nwant %v", iter, got, want)
		}
	}
}

// TestOpsConcurrentPooled: many goroutines share the arena pool through
// Intersect, Union and Eval (the serving shape: one process, many
// request goroutines). Run with -race it checks that no pooled buffer
// is shared across calls.
func TestOpsConcurrentPooled(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ps := randomPostings(t, r, 8, 600)
	type cse struct {
		plan Expr
		want []uint32
	}
	cases := make([]cse, 16)
	for i := range cases {
		plan := randomExpr(r, len(ps), 3)
		cases[i] = cse{plan, naiveEval(plan, ps)}
	}
	wantAnd := naiveEval(And(Leaf(0), Leaf(1), Leaf(2)), ps)
	wantOr := naiveEval(Or(Leaf(3), Leaf(4), Leaf(5)), ps)
	// Dense unions share the pooled word accumulator.
	var densePs []core.Posting
	var denseLists [][]uint32
	for i, name := range []string{"Roaring", "SIMDBP128*", "Roaring+Run"} {
		c, err := codecs.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		l := gen.Uniform(4000, 1<<17, int64(70+i))
		p, err := c.Compress(l)
		if err != nil {
			t.Fatal(err)
		}
		densePs, denseLists = append(densePs, p), append(denseLists, l)
	}
	wantDense := refUnionMany(denseLists)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for iter := 0; iter < 20; iter++ {
				c := cases[(g+iter)%len(cases)]
				got, err := Eval(c.plan, ps)
				if err != nil {
					done <- err
					return
				}
				and, err := Intersect(ps[0:3])
				if err != nil {
					done <- err
					return
				}
				or, err := Union(ps[3:6])
				if err != nil {
					done <- err
					return
				}
				if !equalU32(normalizeQ(got), normalizeQ(c.want)) ||
					!equalU32(normalizeQ(and), normalizeQ(wantAnd)) ||
					!equalU32(normalizeQ(or), normalizeQ(wantOr)) {
					t.Errorf("goroutine %d iter %d: wrong result", g, iter)
				}
				dense, err := Union(densePs)
				if err != nil {
					done <- err
					return
				}
				if !equalU32(dense, wantDense) || !equalU32(UnionMany(append([][]uint32(nil), denseLists...)), wantDense) {
					t.Errorf("goroutine %d iter %d: wrong dense union", g, iter)
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestProbeAliasing documents and enforces the in-place contract of
// skipProbe/mergeProbe: the result is a prefix of cur's backing array.
func TestProbeAliasing(t *testing.T) {
	c, err := codecs.ByName("List")
	if err != nil {
		t.Fatal(err)
	}
	p, err := c.Compress([]uint32{2, 4, 6, 8, 10})
	if err != nil {
		t.Fatal(err)
	}
	s := p.(core.Seeker)
	for _, probe := range []struct {
		name string
		f    func([]uint32, core.Iterator) []uint32
	}{
		{"skipProbe", skipProbe},
		{"mergeProbe", mergeProbe},
	} {
		cur := []uint32{1, 2, 3, 4, 9, 10, 11}
		out := probe.f(cur, s.Iterator())
		if want := []uint32{2, 4, 10}; !equalU32(out, want) {
			t.Fatalf("%s: got %v, want %v", probe.name, out, want)
		}
		if &out[0] != &cur[0] {
			t.Fatalf("%s: result does not alias cur's backing array", probe.name)
		}
		// The input prefix now holds the result: cur is consumed.
		if cur[0] != 2 || cur[1] != 4 || cur[2] != 10 {
			t.Fatalf("%s: cur prefix not overwritten in place: %v", probe.name, cur[:3])
		}
	}
}

// TestArenaReuse: buffers put back into an arena are handed out again.
// A fresh arena (not from the pool) keeps the free list deterministic.
func TestArenaReuse(t *testing.T) {
	a := &arena{}
	b1 := a.get(100)
	b1 = append(b1, 1, 2, 3)
	a.put(b1)
	b2 := a.get(50)
	if cap(b2) < 100 {
		t.Fatalf("expected reuse of the 100-cap buffer, got cap %d", cap(b2))
	}
	if len(b2) != 0 {
		t.Fatalf("reused buffer should have length 0, got %d", len(b2))
	}
	// A buffer that is too small is not returned for a larger request.
	a.put(b2)
	b3 := a.get(1 << 12)
	if cap(b3) < 1<<12 {
		t.Fatalf("got undersized buffer cap %d", cap(b3))
	}
}

// TestArenaRetentionBounds: putArena trims scratch beyond the caps so a
// pathological query cannot pin unbounded memory in the pool.
func TestArenaRetentionBounds(t *testing.T) {
	a := &arena{}
	for i := 0; i < 2*arenaMaxRetainBufs; i++ {
		a.put(make([]uint32, 0, 8))
	}
	a.put(make([]uint32, 0, 2*arenaMaxRetainElems))
	putArena(a)
	if len(a.free) > arenaMaxRetainBufs {
		t.Fatalf("free list not trimmed: %d buffers", len(a.free))
	}
	if a.retained > arenaMaxRetainElems {
		t.Fatalf("retained %d elems exceeds cap %d", a.retained, arenaMaxRetainElems)
	}
}

// TestEngineEmptyAndErrorPlans covers degenerate plan shapes through
// Eval: an empty operand inside an AND, and that AND nested in an OR.
func TestEngineEmptyAndErrorPlans(t *testing.T) {
	c, err := codecs.ByName("Roaring")
	if err != nil {
		t.Fatal(err)
	}
	full, err := c.Compress([]uint32{1, 5, 9})
	if err != nil {
		t.Fatal(err)
	}
	empty, err := c.Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	ps := []core.Posting{full, empty}

	got, err := Eval(And(Leaf(0), Leaf(1), Leaf(0)), ps)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("AND with empty operand: got %v", got)
	}
	got, err = Eval(Or(And(Leaf(0), Leaf(1)), Leaf(0)), ps)
	if err != nil {
		t.Fatal(err)
	}
	if want := []uint32{1, 5, 9}; !equalU32(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}
