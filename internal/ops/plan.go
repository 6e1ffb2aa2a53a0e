package ops

import (
	"sort"

	"repro/internal/core"
)

// Expr is a query plan over a set of postings: the benchmark queries
// combine intersection and union, e.g. SSB Q3.4 is
// (L1 ∪ L2) ∩ (L3 ∪ L4) ∩ L5 (§6.1).
type Expr struct {
	Op   OpKind
	Leaf int // postings index when Op == OpLeaf
	Args []Expr
}

// OpKind enumerates plan node types.
type OpKind int

const (
	// OpLeaf references a posting by index.
	OpLeaf OpKind = iota
	// OpAnd intersects its children.
	OpAnd
	// OpOr unions its children.
	OpOr
)

// Leaf builds a leaf node.
func Leaf(i int) Expr { return Expr{Op: OpLeaf, Leaf: i} }

// And builds an intersection node.
func And(args ...Expr) Expr { return Expr{Op: OpAnd, Args: args} }

// Or builds a union node.
func Or(args ...Expr) Expr { return Expr{Op: OpOr, Args: args} }

// Eval evaluates the plan. Nodes whose children are all leaves run on
// the compressed representations (native bitmap AND/OR, SvS for lists);
// inner results are uncompressed lists combined by merging, matching
// the paper's implementation (§B.1: results are uncompressed so they
// can feed further operations).
func Eval(e Expr, postings []core.Posting) ([]uint32, error) {
	switch e.Op {
	case OpLeaf:
		return postings[e.Leaf].Decompress(), nil
	case OpAnd:
		if leaves, ok := allLeaves(e.Args); ok {
			return Intersect(pick(postings, leaves))
		}
		// Mixed node: evaluate the sub-expressions to lists, then probe
		// the remaining compressed leaves, shortest first, against the
		// running result through Intersect's own probeAnd.
		var lists [][]uint32
		var leafPs []core.Posting
		for _, a := range e.Args {
			if a.Op == OpLeaf {
				leafPs = append(leafPs, postings[a.Leaf])
				continue
			}
			r, err := Eval(a, postings)
			if err != nil {
				return nil, err
			}
			lists = append(lists, r)
		}
		sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
		cur := lists[0]
		for _, l := range lists[1:] {
			cur = IntersectSorted(cur, l)
		}
		sortPostingsByLen(leafPs)
		// cur is this call's own slice, so probeAnd may filter it in
		// place.
		for _, p := range leafPs {
			if len(cur) == 0 {
				break
			}
			cur = probeAnd(cur, p)
		}
		return cur, nil
	default: // OpOr
		if leaves, ok := allLeaves(e.Args); ok {
			return Union(pick(postings, leaves))
		}
		parts, err := evalArgs(e.Args, postings)
		if err != nil {
			return nil, err
		}
		return UnionMany(parts), nil
	}
}

func allLeaves(args []Expr) ([]int, bool) {
	idx := make([]int, len(args))
	for i, a := range args {
		if a.Op != OpLeaf {
			return nil, false
		}
		idx[i] = a.Leaf
	}
	return idx, true
}

func pick(postings []core.Posting, idx []int) []core.Posting {
	out := make([]core.Posting, len(idx))
	for i, k := range idx {
		out[i] = postings[k]
	}
	return out
}

func evalArgs(args []Expr, postings []core.Posting) ([][]uint32, error) {
	out := make([][]uint32, len(args))
	for i, a := range args {
		r, err := Eval(a, postings)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}
