package ops

import (
	"sync"

	"repro/internal/core"
)

// Scratch retention caps for pooled arenas: a single huge query must not
// pin an unbounded amount of decode scratch in the pool forever.
const (
	arenaMaxRetainElems = 1 << 21 // 8 MiB of uint32 scratch per pooled arena
	arenaMaxRetainBufs  = 64
)

// arena is the per-call scratch allocator behind Intersect. Decode and
// probe targets are drawn from a free list that put refills, so
// steady-state intersection performs no heap allocation for scratch.
// The postings field is stack-disciplined operand scratch: a caller
// records the current length, appends its entries, and truncates back
// on the way out.
//
// An arena is NOT safe for concurrent use; every Intersect call takes
// its own from the pool.
type arena struct {
	free     [][]uint32 // reusable buffers, length reset by get
	retained int        // sum of caps across free

	postings []core.Posting // operand scratch (stack-disciplined)
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

func getArena() *arena { return arenaPool.Get().(*arena) }

// putArena trims retained scratch to the caps above and returns a to the
// pool. Operand scratch is truncated but keeps its capacity.
func putArena(a *arena) {
	for len(a.free) > 0 && (len(a.free) > arenaMaxRetainBufs || a.retained > arenaMaxRetainElems) {
		last := a.free[len(a.free)-1]
		a.retained -= cap(last)
		a.free[len(a.free)-1] = nil
		a.free = a.free[:len(a.free)-1]
	}
	a.postings = a.postings[:0]
	arenaPool.Put(a)
}

// get returns a zero-length buffer with capacity >= hint, preferring the
// smallest free buffer that fits. The caller owns the buffer until it
// either puts it back or returns it as its result.
func (a *arena) get(hint int) []uint32 {
	best := -1
	for i, b := range a.free {
		if cap(b) >= hint && (best < 0 || cap(b) < cap(a.free[best])) {
			best = i
		}
	}
	if best >= 0 {
		buf := a.free[best]
		a.retained -= cap(buf)
		a.free[best] = a.free[len(a.free)-1]
		a.free[len(a.free)-1] = nil
		a.free = a.free[:len(a.free)-1]
		return buf[:0]
	}
	if hint < 64 {
		hint = 64
	}
	return make([]uint32, 0, hint)
}

// put returns buf's backing array to the free list. buf must not be
// touched afterwards — that includes slices aliasing it, such as the
// in-place results of skipProbe/mergeProbe/intersectSortedInPlace, so a
// buffer and its shrunk alias count as ONE ownership, never two.
// Adopting fresh heap slices (native codec op results) is allowed and
// grows the free list.
func (a *arena) put(buf []uint32) {
	if cap(buf) == 0 {
		return
	}
	a.retained += cap(buf)
	a.free = append(a.free, buf)
}
