package ops

import (
	"repro/internal/core"
)

// Mixed-representation intersection: a bucketed bitmap (core.BucketProber,
// i.e. Roaring or Roaring+Run) against a skip-pointered compressed list
// (core.Seeker) with neither side decompressed up front. The kernel
// walks the bitmap's 2^16-wide buckets against the list's iterator:
// non-overlapping regions are skipped with one SeekGEQ (whole list
// blocks) or one bucket advance (whole containers), and a matching
// bucket is evaluated in whichever direction is cheaper.

// bucketEnumMax is the bucket cardinality below which a matching bucket
// is enumerated and located in the list by seeking, rather than
// iterating the list's values through BucketContains. 128 is one list
// block: enumerating at most one block's worth of values keeps the
// seek path ahead of block-by-block iteration.
const bucketEnumMax = 128

// mixedIntersect intersects p and q via the bucket×seeker kernel when
// one side is a BucketProber and the other a Seeker, returning
// ok=false when the pairing does not apply. The result is a fresh slice.
func mixedIntersect(p, q core.Posting) ([]uint32, bool) {
	if bm, ok := p.(core.BucketProber); ok {
		if s, ok2 := q.(core.Seeker); ok2 {
			return intersectBucketSeeker(bm, s, q.Len()), true
		}
	}
	if bm, ok := q.(core.BucketProber); ok {
		if s, ok2 := p.(core.Seeker); ok2 {
			return intersectBucketSeeker(bm, s, p.Len()), true
		}
	}
	return nil, false
}

// intersectBucketSeeker walks bucket keys and the list iterator in
// tandem. Inside a matching bucket: a small bucket (<= bucketEnumMax)
// enumerates its values into one scratch array and seeks the list for
// each — cost |bucket|·log on the skip array; a large bucket (dense bitmap
// or long run container) iterates the list's values for the bucket's
// key range and probes membership — cost (list values in range) with
// O(1) word/interval probes and no decompression of the bitmap side.
func intersectBucketSeeker(bm core.BucketProber, s core.Seeker, listLen int) []uint32 {
	it := s.Iterator()
	out := make([]uint32, 0, min(bm.Len(), listLen))
	var scratch [bucketEnumMax]uint32
	v, ok := it.Next()
	nb := bm.NumBuckets()
	for bi := 0; ok && bi < nb; {
		key := bm.BucketKey(bi)
		vh := uint16(v >> 16)
		switch {
		case vh > key:
			// List is past this container: skip whole buckets.
			bi++
		case vh < key:
			// Container is past the list position: one seek skips all
			// list blocks below the bucket's key range.
			v, ok = it.SeekGEQ(uint32(key) << 16)
		default:
			if bn := bm.BucketLen(bi); bn <= bucketEnumMax {
				for _, bv := range bm.AppendBucket(bi, scratch[:0]) {
					if v < bv {
						v, ok = it.SeekGEQ(bv)
						if !ok {
							break
						}
					}
					if v == bv {
						out = append(out, bv)
					}
				}
				if !ok {
					break
				}
			} else {
				for ok && uint16(v>>16) == key {
					if bm.BucketContains(bi, uint16(v)) {
						out = append(out, v)
					}
					v, ok = it.Next()
				}
			}
			bi++
		}
	}
	return out
}
