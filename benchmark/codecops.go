package main

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"os"
	"time"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/ops"
)

// codec-ops is the paper's own experiment: compress synthetic sorted
// lists with each codec and time decompression, pairwise intersection
// and pairwise union on the compressed form. The serving layers do
// nothing here, which makes it the bypass workload for every change to
// server, shard or wal, and the guard for kernel deletions.
//
// Sizes keep the densities of a 2^16 / 2^22-of-2^26 grid (1/1024 and
// 1/16) on a 2^24 domain, so that the whole matrix fits the run cap.
const (
	listDomain = 1 << 24
	sparseLen  = 1 << 14
	denseLen   = 1 << 20
	// markovRun is the mean 1-run length of the markov lists.
	markovRun = 8
)

var listDists = []string{"uniform", "zipf", "markov"}

// listPair is the two operand lists of one (distribution, density)
// point, with the benchmark's own answers for AND and OR.
type listPair struct {
	dist, density string
	a, b          []uint32
	andN, orN     int
	aH, andH, orH uint64
}

func genList(rng *rand.Rand, dist string, n int) []uint32 {
	switch dist {
	case "uniform":
		return genUniform(rng, n, listDomain)
	case "zipf":
		return genZipf(rng, n, listDomain)
	default:
		return genMarkov(rng, n, listDomain, markovRun)
	}
}

// mergeTruth is the naive two-pointer AND and OR of two sorted lists.
func mergeTruth(a, b []uint32) (and, or []uint32) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			or = append(or, a[i])
			i++
		case a[i] > b[j]:
			or = append(or, b[j])
			j++
		default:
			and = append(and, a[i])
			or = append(or, a[i])
			i, j = i+1, j+1
		}
	}
	or = append(or, a[i:]...)
	or = append(or, b[j:]...)
	return and, or
}

func newListPair(dist, density string, a, b []uint32) listPair {
	and, or := mergeTruth(a, b)
	return listPair{
		dist: dist, density: density, a: a, b: b,
		andN: len(and), orN: len(or),
		aH: hashDocs(hashSeed, a), andH: hashDocs(hashSeed, and), orH: hashDocs(hashSeed, or),
	}
}

// genListPairs makes the six (distribution, density) pairs plus the
// skewed sparse x dense pair, all from one seed.
func genListPairs(seed int64) (pairs []listPair, skewed listPair) {
	rng := rand.New(rand.NewSource(seed))
	for _, dist := range listDists {
		for _, d := range []struct {
			name string
			n    int
		}{{"sparse", sparseLen}, {"dense", denseLen}} {
			pairs = append(pairs, newListPair(dist, d.name, genList(rng, dist, d.n), genList(rng, dist, d.n)))
		}
	}
	skewed = newListPair("uniform", "skewed", pairs[0].a, pairs[1].b)
	return pairs, skewed
}

// timeOp calls fn in five batches that together fill budget and
// returns the median batch's ns per call and the number of calls made.
func timeOp(budget time.Duration, fn func()) (nsPerOp float64, calls int) {
	t0 := time.Now()
	fn()
	one := max(time.Since(t0), time.Nanosecond)
	per := max(1, int(budget/5/one))
	var batch [5]float64
	for b := range batch {
		t0 = time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		batch[b] = float64(time.Since(t0).Nanoseconds()) / float64(per)
	}
	return median(batch[:]), 1 + 5*per
}

func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// codecCell is one timed (codec, list pair, operation).
type codecCell struct {
	codec, op string
	pair      *listPair
	ns        float64
	ints      int // values produced by a decode
}

func runCodecOps(r *run) error {
	pairs, skewed := genListPairs(r.seed)

	type compressed struct{ a, b core.Posting }
	cs := make([]core.Codec, len(codecNames))
	for i, c := range codecNames {
		codec, err := codecs.ByName(c.codec)
		if err != nil {
			return err
		}
		cs[i] = codec
	}
	// Set-up is the program's own work before the first answer:
	// compressing every list with every codec. Done three times; the
	// median is reported and the last result is used.
	post := make([][]compressed, len(cs))
	var setups []float64
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		for ci, codec := range cs {
			post[ci] = make([]compressed, len(pairs))
			for pi := range pairs {
				a, err := codec.Compress(pairs[pi].a)
				if err != nil {
					return fmt.Errorf("%s: %w", codec.Name(), err)
				}
				b, err := codec.Compress(pairs[pi].b)
				if err != nil {
					return fmt.Errorf("%s: %w", codec.Name(), err)
				}
				post[ci][pi] = compressed{a, b}
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(setups), len(setups))

	// The traced pass spends a fifth of the window on the kernels.
	window := r.seconds
	if r.traced {
		window = r.seconds * 4 / 5
	}
	ncells := len(cs) * (len(pairs)*3 + 1)
	budget := window / time.Duration(ncells)

	var cells []codecCell
	buf := make([]uint32, 0, 2*denseLen+denseLen/2)
	measure := func(codec, op string, pair *listPair, wantN int, wantH uint64, fn func() ([]uint32, error)) {
		// Every call's answer is checked by length and the first one in
		// full, so a wrong result cannot be timed as a fast one.
		first, complained := true, false
		ns, calls := timeOp(budget, func() {
			out, err := fn()
			ok := err == nil && len(out) == wantN && (!first || hashDocs(hashSeed, out) == wantH)
			first = false
			if !r.check(ok) && !complained {
				complained = true
				fmt.Fprintf(os.Stderr, "benchmark: %s %s on %s/%s: wrong answer (%d values, want %d; err %v)\n",
					codec, op, pair.dist, pair.density, len(out), wantN, err)
			}
		})
		cells = append(cells, codecCell{codec: codec, op: op, pair: pair, ns: ns, ints: wantN})
		if r.traced {
			r.spans = append(r.spans, span{Trace: len(cells), Span: 1, Name: codec + "." + op + "." + pair.dist + "." + pair.density,
				EndNS: int64(ns), Counts: map[string]int{"calls": calls, "values": wantN}})
		}
	}
	var bitsAll []float64
	perCodecBits := map[string][]float64{}
	for ci, codec := range cs {
		name := codec.Name()
		for pi := range pairs {
			p, c := &pairs[pi], post[ci][pi]
			bpi := 8 * float64(c.a.SizeBytes()) / float64(c.a.Len())
			bitsAll = append(bitsAll, bpi)
			perCodecBits[name] = append(perCodecBits[name], bpi)
			measure(name, "decode", p, len(p.a), p.aH, func() ([]uint32, error) {
				return core.DecompressAppend(c.a, buf[:0]), nil
			})
			measure(name, "and", p, p.andN, p.andH, func() ([]uint32, error) {
				return ops.Intersect([]core.Posting{c.a, c.b})
			})
			measure(name, "or", p, p.orN, p.orH, func() ([]uint32, error) {
				return ops.Union([]core.Posting{c.a, c.b})
			})
		}
		sa, sb := post[ci][0].a, post[ci][1].b
		measure(name, "and", &skewed, skewed.andN, skewed.andH, func() ([]uint32, error) {
			return ops.Intersect([]core.Posting{sa, sb})
		})
	}

	if !r.traced {
		// There is no request stream here, so a percentile would be the
		// time of whichever single cell sits at that rank and would jump
		// as cells trade places. The median figure is the geometric mean
		// of the sparse-list cells (the typical small operation), the tail
		// figure that of the dense-list cells (the large one).
		var all, sparse, dense []float64
		for _, c := range cells {
			all = append(all, c.ns)
			if c.pair.density == "dense" {
				dense = append(dense, c.ns)
			} else {
				sparse = append(sparse, c.ns)
			}
		}
		r.set("throughput_qps", 1e9/geomean(all), len(all))
		r.set("latency_p50_ms", geomean(sparse)/1e6, len(sparse))
		r.set("latency_p95_ms", geomean(dense)/1e6, len(dense))
		r.set("bits_per_int", geomean(bitsAll), len(bitsAll))
		r.set("rss_peak_mb", rssPeakMB(os.Getpid()), 1)
		return nil
	}

	// Per-codec and pooled figures, each a geometric mean over cells.
	pooled := map[string][]float64{}
	for _, cn := range codecNames {
		by := map[string][]float64{}
		for _, c := range cells {
			if c.codec != cn.codec {
				continue
			}
			v := c.ns / 1e3 // µs per op
			if c.op == "decode" {
				v = float64(c.ints) / c.ns * 1e3 // Mint/s
			}
			by[c.op] = append(by[c.op], v)
			pooled[c.op] = append(pooled[c.op], v)
		}
		p := cn.module + "." + metricCodec(cn.codec)
		r.set(p+".decode_mints_s", geomean(by["decode"]), len(by["decode"]))
		r.set(p+".and_us", geomean(by["and"]), len(by["and"]))
		r.set(p+".or_us", geomean(by["or"]), len(by["or"]))
		r.set(p+".bits_per_int", geomean(perCodecBits[cn.codec]), len(perCodecBits[cn.codec]))
	}
	r.set("codec.decode_mints_s", geomean(pooled["decode"]), len(pooled["decode"]))
	r.set("codec.and_us", geomean(pooled["and"]), len(pooled["and"]))
	r.set("codec.or_us", geomean(pooled["or"]), len(pooled["or"]))

	traceKernels(r, r.seconds/5)
	return nil
}

// gapWidthHistogram counts, over every posting list of a C300 corpus,
// the 128-docid blocks by the bit width of their largest d-gap: the
// weights real lists put on each unpack width.
func gapWidthHistogram(tr *truth) (hist [33]int) {
	for _, l := range tr.docs {
		prev := uint32(0)
		for at := 0; at < len(l); at += kernels.BlockLen {
			widest := uint32(0)
			for _, d := range l[at:min(at+kernels.BlockLen, len(l))] {
				widest = max(widest, d-prev)
				prev = d
			}
			hist[bits.Len32(widest)]++
		}
	}
	return hist
}

// traceKernels times the four unpack families at the widths real d-gap
// blocks use, and the word-AND kernel, in the given window.
func traceKernels(r *run, window time.Duration) {
	hist := gapWidthHistogram(buildTruth(genCorpus(r.seed, c300)))
	widths, blocks := 0, 0
	for w := 1; w <= 32; w++ {
		if hist[w] > 0 {
			widths++
			blocks += hist[w]
		}
	}
	budget := window / time.Duration(4*widths+1)
	rng := rand.New(rand.NewSource(r.seed))
	var in [128]uint32
	var out128 [128]uint32
	var out127 [127]uint32
	outN := make([]uint32, 128)
	families := []struct {
		name     string
		vertical bool
		call     func(src []byte, w uint)
	}{
		{"kernels.vunpackdelta_mints_s", true, func(src []byte, w uint) { kernels.VUnpackDelta(src, &out127, 7, w) }},
		{"kernels.vunpack_mints_s", true, func(src []byte, w uint) { kernels.VUnpack(src, &out128, w) }},
		{"kernels.vunpackbase_mints_s", true, func(src []byte, w uint) { kernels.VUnpackBase(src, &out127, 7, w) }},
		{"kernels.unpack_mints_s", false, func(src []byte, w uint) { kernels.Unpack(src, outN, w) }},
	}
	for _, f := range families {
		weighted, calls := 0.0, 0
		for w := uint(1); w <= 32; w++ {
			if hist[w] == 0 {
				continue
			}
			for i := range in {
				in[i] = uint32(rng.Uint64() & (1<<w - 1))
			}
			var src []byte
			if f.vertical {
				src = kernels.VPack128(nil, &in, w)
			} else {
				src = kernels.Pack(nil, in[:], w)
			}
			src = append(src, make([]byte, 16)...) // slack the horizontal kernels over-read
			ns, n := timeOp(budget, func() { f.call(src, w) })
			weighted += ns * float64(hist[w])
			calls += n
		}
		// blocks·128 values in Σ hist[w]·ns[w] nanoseconds.
		r.set(f.name, float64(blocks)*kernels.BlockLen/weighted*1e3, calls)
	}
	const words = 1 << 13 // a 64 KiB bitmap per operand
	a, b, dst := make([]uint64, words), make([]uint64, words), make([]uint64, words)
	for i := range a {
		a[i], b[i] = rng.Uint64(), rng.Uint64()
	}
	ns, n := timeOp(budget, func() { kernels.AndWords(dst, a, b) })
	r.set("kernels.andwords_gb_s", 3*8*words/ns, n)
}
