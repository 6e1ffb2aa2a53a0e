package ops

// Galloping (exponential-probe) SvS intersection of uncompressed sorted
// lists, per Lemire/Boytsov/Kurz ("SIMD Compression and the
// Intersection of Sorted Integers"): iterate the small side and locate
// each value in the large side by doubling probes from the previous
// position plus a binary search over the bracketed range. Work is
// |small|·log(gap) instead of |small|+|large|, which dominates for
// highly skewed pairs but loses to the linear merge when sizes are
// comparable (the probes are branchy and cache-hostile).

// gallopRatio is the size ratio at which intersection switches from
// linear merge to galloping. The crossover solves
// |small|·log2|large| < |small|+|large|: with list lengths up to ~2^24
// the log factor is ≤ 24, so any ratio comfortably above that pays;
// 32 adds margin for galloping's worse constant factor (documented in
// DESIGN §8).
const gallopRatio = 32

// gallopGEQ returns the smallest index k >= lo with a[k] >= target
// (len(a) when none), probing exponentially from lo and then binary
// searching the bracketed window. Resuming from the previous match's
// position makes a full intersection adaptive: sequential locality
// costs O(1) per step, wide jumps cost the log of the jump only.
func gallopGEQ(a []uint32, lo int, target uint32) int {
	n := len(a)
	if lo >= n || a[lo] >= target {
		return lo
	}
	bound := 1
	for lo+bound < n && a[lo+bound] < target {
		bound <<= 1
	}
	// a[lo+bound/2] < target; the answer is in (lo+bound/2, lo+bound].
	i, j := lo+bound/2+1, min(lo+bound+1, n)
	for i < j {
		m := int(uint(i+j) >> 1)
		if a[m] < target {
			i = m + 1
		} else {
			j = m
		}
	}
	return i
}

// intersectAdaptiveInPlace intersects cur with b under the same
// aliasing contract as intersectSortedInPlace (result written into
// cur's prefix, cur consumed): skewed pairs gallop, similar sizes take
// the linear merge. Both directions are safe in place — the write
// index never passes the scan position in cur.
func intersectAdaptiveInPlace(cur, b []uint32) []uint32 {
	switch {
	case len(b) > gallopRatio*len(cur):
		return gallopFilter(cur, b)
	case len(cur) > gallopRatio*len(b):
		return gallopFilterRev(cur, b)
	default:
		return intersectSortedInPlace(cur, b)
	}
}

// gallopFilter keeps the elements of cur present in the much larger b.
func gallopFilter(cur, b []uint32) []uint32 {
	out := cur[:0]
	j := 0
	for _, v := range cur {
		j = gallopGEQ(b, j, v)
		if j == len(b) {
			break
		}
		if b[j] == v {
			out = append(out, v)
			j++
		}
	}
	return out
}

// gallopFilterRev keeps the elements of the much smaller b present in
// cur, still writing into cur's prefix: after k matches the write index
// is k while the gallop position in cur is at least k, so reads stay
// ahead of writes.
func gallopFilterRev(cur, b []uint32) []uint32 {
	out := cur[:0]
	i := 0
	for _, v := range b {
		i = gallopGEQ(cur, i, v)
		if i == len(cur) {
			break
		}
		if cur[i] == v {
			out = append(out, v)
			i++
		}
	}
	return out
}
