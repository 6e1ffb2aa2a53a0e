package bitmap

import (
	"sort"

	"repro/internal/core"
	"repro/internal/kernels"
)

// RoaringRun is the unified-compression extension the paper's lesson 1
// calls for ("both techniques can learn from each other to develop a
// better unified compression method", §7.2): Roaring's bucket scheme
// with a third, run-length container. Each 2^16 bucket picks the
// cheapest of three representations — sorted 16-bit array (inverted
// list), 65536-bit bitmap, or a list of [start, last] runs (RLE) — so
// the codec degenerates to whichever of the paper's two families suits
// each region of the data.
type RoaringRun struct{}

// NewRoaringRun returns the hybrid codec.
func NewRoaringRun() core.Codec { return RoaringRun{} }

func (RoaringRun) Name() string    { return "Roaring+Run" }
func (RoaringRun) Kind() core.Kind { return core.KindBitmap }

// interval is an inclusive run of low 16-bit values.
type interval struct {
	start, last uint16
}

// runContainer stores a bucket as sorted disjoint runs.
type runContainer struct {
	runs []interval
	n    int
}

func (c *runContainer) card() int      { return c.n }
func (c *runContainer) sizeBytes() int { return 4 * len(c.runs) }
func (c *runContainer) appendAll(out []uint32, high uint32) []uint32 {
	for _, r := range c.runs {
		for v := uint32(r.start); v <= uint32(r.last); v++ {
			out = append(out, high|v)
		}
	}
	return out
}

// contains reports membership via binary search over the runs.
func (c *runContainer) contains(low uint16) bool {
	i := sort.Search(len(c.runs), func(i int) bool { return c.runs[i].last >= low })
	return i < len(c.runs) && c.runs[i].start <= low
}

func (RoaringRun) Compress(values []uint32) (core.Posting, error) {
	if err := core.ValidateSorted(values); err != nil {
		return nil, err
	}
	p := &roaringRunPosting{n: len(values)}
	i := 0
	for i < len(values) {
		key := uint16(values[i] >> 16)
		j := i
		for j < len(values) && uint16(values[j]>>16) == key {
			j++
		}
		bucket := values[i:j]
		p.keys = append(p.keys, key)
		p.cs = append(p.cs, bestContainer(bucket))
		i = j
	}
	return p, nil
}

// bestContainer picks the smallest of run / array / bitmap for one
// bucket (Roaring's standard heuristic generalized to three ways).
func bestContainer(bucket []uint32) container {
	// Count runs in one pass.
	runs := 1
	for k := 1; k < len(bucket); k++ {
		if bucket[k] != bucket[k-1]+1 {
			runs++
		}
	}
	runCost := 4 * runs
	arrayCost := 2 * len(bucket)
	bitmapCost := 8192
	switch {
	case runCost <= arrayCost && runCost <= bitmapCost:
		c := &runContainer{n: len(bucket), runs: make([]interval, 0, runs)}
		start := uint16(bucket[0])
		prev := start
		for _, v := range bucket[1:] {
			lv := uint16(v)
			if lv != prev+1 {
				c.runs = append(c.runs, interval{start, prev})
				start = lv
			}
			prev = lv
		}
		c.runs = append(c.runs, interval{start, prev})
		return c
	case arrayCost <= bitmapCost:
		c := make(arrayContainer, len(bucket))
		for k, v := range bucket {
			c[k] = uint16(v)
		}
		return c
	default:
		c := &bitmapContainer{n: len(bucket)}
		for _, v := range bucket {
			low := v & 0xffff
			c.words[low>>6] |= 1 << (low & 63)
		}
		return c
	}
}

type roaringRunPosting struct {
	keys []uint16
	cs   []container
	n    int
}

func (p *roaringRunPosting) Len() int { return p.n }

// SizeBytes counts payloads plus 4 bytes of per-container metadata.
func (p *roaringRunPosting) SizeBytes() int {
	s := 4 * len(p.cs)
	for _, c := range p.cs {
		s += c.sizeBytes()
	}
	return s
}

func (p *roaringRunPosting) Decompress() []uint32 {
	return p.DecompressAppend(make([]uint32, 0, p.n))
}

// DecompressAppend implements core.DecompressAppender.
func (p *roaringRunPosting) DecompressAppend(dst []uint32) []uint32 {
	for i, c := range p.cs {
		dst = c.appendAll(dst, uint32(p.keys[i])<<16)
	}
	return dst
}

// IntersectWith merges bucket keys and intersects matching containers
// across all nine container-type combinations.
func (p *roaringRunPosting) IntersectWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*roaringRunPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	var out []uint32
	i, j := 0, 0
	for i < len(p.keys) && j < len(q.keys) {
		switch {
		case p.keys[i] < q.keys[j]:
			i++
		case p.keys[i] > q.keys[j]:
			j++
		default:
			out = andRunAware(p.cs[i], q.cs[j], out, uint32(p.keys[i])<<16)
			i++
			j++
		}
	}
	return out, nil
}

// UnionWith merges bucket keys and unions matching containers.
func (p *roaringRunPosting) UnionWith(other core.Posting) ([]uint32, error) {
	q, ok := other.(*roaringRunPosting)
	if !ok {
		return nil, core.ErrIncompatible
	}
	out := make([]uint32, 0, p.n+q.n)
	i, j := 0, 0
	for i < len(p.keys) || j < len(q.keys) {
		switch {
		case j >= len(q.keys) || (i < len(p.keys) && p.keys[i] < q.keys[j]):
			out = p.cs[i].appendAll(out, uint32(p.keys[i])<<16)
			i++
		case i >= len(p.keys) || p.keys[i] > q.keys[j]:
			out = q.cs[j].appendAll(out, uint32(q.keys[j])<<16)
			j++
		default:
			out = orRunAware(p.cs[i], q.cs[j], out, uint32(p.keys[i])<<16)
			i++
			j++
		}
	}
	return out, nil
}

// andRunAware dispatches the 3x3 container matrix, reducing the six
// run-involving cases to three kernels.
func andRunAware(a, b container, out []uint32, high uint32) []uint32 {
	ra, aIsRun := a.(*runContainer)
	rb, bIsRun := b.(*runContainer)
	switch {
	case aIsRun && bIsRun:
		return andRunRun(ra, rb, out, high)
	case aIsRun:
		return andRunOther(ra, b, out, high)
	case bIsRun:
		return andRunOther(rb, a, out, high)
	default:
		return andContainers(a, b, out, high)
	}
}

// andRunRun intersects two sorted interval lists.
func andRunRun(a, b *runContainer, out []uint32, high uint32) []uint32 {
	i, j := 0, 0
	for i < len(a.runs) && j < len(b.runs) {
		ra, rb := a.runs[i], b.runs[j]
		lo, hi := max(ra.start, rb.start), min(ra.last, rb.last)
		if lo <= hi {
			for v := uint32(lo); v <= uint32(hi); v++ {
				out = append(out, high|v)
			}
		}
		if ra.last < rb.last {
			i++
		} else {
			j++
		}
	}
	return out
}

// andRunOther intersects a run container with an array or bitmap one.
func andRunOther(r *runContainer, other container, out []uint32, high uint32) []uint32 {
	switch c := other.(type) {
	case arrayContainer:
		i := 0
		for _, v := range c {
			for i < len(r.runs) && r.runs[i].last < v {
				i++
			}
			if i == len(r.runs) {
				break
			}
			if r.runs[i].start <= v {
				out = append(out, high|uint32(v))
			}
		}
	case *bitmapContainer:
		for _, run := range r.runs {
			for v := uint32(run.start); v <= uint32(run.last); v++ {
				if c.contains(uint16(v)) {
					out = append(out, high|v)
				}
			}
		}
	}
	return out
}

// orRunAware unions a container pair, materializing runs through a
// scratch bitmap when a run container is involved.
func orRunAware(a, b container, out []uint32, high uint32) []uint32 {
	_, aIsRun := a.(*runContainer)
	_, bIsRun := b.(*runContainer)
	if !aIsRun && !bIsRun {
		return orContainers(a, b, out, high)
	}
	var merged bitmapContainer
	orContainerInto(merged.words[:], a)
	orContainerInto(merged.words[:], b)
	return merged.appendAll(out, high)
}

// orContainerInto ORs a container of any kind into words, bit i
// standing for low value i: bitmap containers OR in word-wise, arrays
// set bits, runs fill word-masked ranges. words may stop short of 1024
// only past the container's last value.
func orContainerInto(words []uint64, c container) {
	switch cc := c.(type) {
	case arrayContainer:
		for _, v := range cc {
			words[v>>6] |= 1 << (v & 63)
		}
	case *bitmapContainer:
		w := words[:min(len(words), len(cc.words))]
		kernels.OrWords(w, w, cc.words[:])
	case *runContainer:
		for _, r := range cc.runs {
			setRange(words, uint32(r.start), uint32(r.last))
		}
	}
}

// setRange sets bits [lo, hi] (inclusive) word-wise.
func setRange(words []uint64, lo, hi uint32) {
	loW, hiW := lo>>6, hi>>6
	loMask := ^uint64(0) << (lo & 63)
	hiMask := ^uint64(0) >> (63 - hi&63)
	if loW == hiW {
		words[loW] |= loMask & hiMask
		return
	}
	words[loW] |= loMask
	for w := loW + 1; w < hiW; w++ {
		words[w] = ^uint64(0)
	}
	words[hiW] |= hiMask
}

// IntersectList implements core.ListProber over all three container
// kinds.
func (p *roaringRunPosting) IntersectList(sorted []uint32) []uint32 {
	var out []uint32
	ci := 0
	i := 0
	for i < len(sorted) && ci < len(p.keys) {
		key := uint16(sorted[i] >> 16)
		switch {
		case p.keys[ci] < key:
			ci++
		case p.keys[ci] > key:
			next := uint64(key+1) << 16
			i += sort.Search(len(sorted)-i, func(k int) bool {
				return uint64(sorted[i+k]) >= next
			})
		default:
			next := uint64(key+1) << 16
			probe := containerProbe(p.cs[ci])
			for i < len(sorted) && uint64(sorted[i]) < next {
				if probe(uint16(sorted[i])) {
					out = append(out, sorted[i])
				}
				i++
			}
			ci++
		}
	}
	return out
}

// containerProbe returns a membership test for any container kind.
func containerProbe(c container) func(uint16) bool {
	switch cc := c.(type) {
	case arrayContainer:
		return func(low uint16) bool {
			k := sort.Search(len(cc), func(i int) bool { return cc[i] >= low })
			return k < len(cc) && cc[k] == low
		}
	case *bitmapContainer:
		return cc.contains
	case *runContainer:
		return cc.contains
	default:
		return func(uint16) bool { return false }
	}
}

// RunStats reports how many buckets chose each representation — used by
// the hybrid ablation to show the codec adapting to the data.
func (p *roaringRunPosting) RunStats() (runs, arrays, bitmaps int) {
	for _, c := range p.cs {
		switch c.(type) {
		case *runContainer:
			runs++
		case arrayContainer:
			arrays++
		case *bitmapContainer:
			bitmaps++
		}
	}
	return
}
