// Package oracle is the always-on differential correctness rig: every
// optimized path in the stack is re-run against its slow, obviously
// correct reference on randomized inputs, and any divergence is a
// failure that names a reproducer seed.
//
// The pairings (DESIGN.md §7):
//
//   - generated decode kernels (Unpack, VUnpack, VUnpackDelta,
//     VUnpackBase) vs the generic accumulator references (UnpackRef,
//     VUnpackRef) across every bit width 0..32;
//   - the BVIX3 mmap read path vs the in-memory index it was written
//     from, and the stream roundtrip (WriteTo/Read), on and/or/top-k
//     queries;
//   - degraded-mode open (OpenFileDegraded) of a tail-corrupted file
//     vs the pristine index: every term must serve either its exact
//     pristine postings or nothing (quarantined) — never wrong data;
//   - the adaptive hybrid index (per-term codec selection) vs a
//     mono-codec index over the same corpus, in memory and through a
//     BVIX3 reopen, on and/or/top-k queries;
//   - ops.Intersect's mixed bitmap×list and galloping SvS intersection
//     kernels vs the plain sorted-slice merge, across skews up to
//     10^4:1;
//   - the pruned ranked-retrieval algorithm (Block-Max-WAND) vs
//     exhaustive evaluation, in memory and through a BVIX3 v4
//     (impact-annotated) write and reopen — result lists must be
//     identical, down to the deterministic docid tie-break;
//   - the doc-partitioned scatter-gather router vs the unpartitioned
//     index, across 1/2/4/8 shards on and/or/top-k (k up to 100000),
//     including a shard-file + manifest disk roundtrip — merged
//     answers must be byte-identical;
//   - the WAL-backed multi-segment live index vs a from-scratch
//     rebuild of the surviving documents, across 1/2/4 sealed segments
//     with and without deletions, before compaction, after compaction,
//     and after a close/reopen that replays the WAL.
//
// Each check is deterministic in its seed: oracle.Run(seed, dir) either
// passes or returns an error describing the first divergence, and the
// same seed reproduces it exactly.
package oracle

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/index"
	"repro/internal/kernels"
	"repro/internal/load"
	"repro/internal/ops"
	"repro/internal/shard"
)

// Run executes one full differential pass for seed, using dir for
// scratch index files. It returns nil when every optimized path agreed
// with its reference, or an error describing the first divergence.
func Run(seed int64, dir string) error {
	if err := CheckKernels(seed); err != nil {
		return fmt.Errorf("kernels: %w", err)
	}
	if err := CheckIndexFile(seed, dir); err != nil {
		return fmt.Errorf("index file: %w", err)
	}
	if err := CheckDegraded(seed, dir); err != nil {
		return fmt.Errorf("degraded open: %w", err)
	}
	if err := CheckHybrid(seed, dir); err != nil {
		return fmt.Errorf("hybrid index: %w", err)
	}
	if err := CheckMixedIntersect(seed); err != nil {
		return fmt.Errorf("mixed intersect: %w", err)
	}
	if err := CheckTopK(seed, dir); err != nil {
		return fmt.Errorf("ranked top-k: %w", err)
	}
	if err := CheckSharded(seed, dir); err != nil {
		return fmt.Errorf("sharded router: %w", err)
	}
	if err := CheckLiveIndex(seed, dir); err != nil {
		return fmt.Errorf("live index: %w", err)
	}
	return nil
}

// widthMask is the b-bit value mask (all ones at b=32).
func widthMask(b uint) uint32 {
	if b >= 32 {
		return ^uint32(0)
	}
	return uint32(1)<<b - 1
}

// CheckKernels compares every specialized decode kernel against its
// generic reference at every width 0..32 on random and all-ones
// payloads.
func CheckKernels(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for b := uint(0); b <= 32; b++ {
		mask := widthMask(b)
		fill := func(dst []uint32, ones bool) {
			for i := range dst {
				if ones {
					dst[i] = mask
				} else {
					dst[i] = rng.Uint32() & mask
				}
			}
		}
		for _, ones := range []bool{false, true} {
			// Horizontal layout: random length exercises both the
			// 32-value kernel groups and the UnpackRef tail fallback.
			n := 1 + rng.Intn(160)
			vals := make([]uint32, n)
			fill(vals, ones)
			packed := kernels.Pack(nil, vals, b)
			ref := make([]uint32, n)
			fast := make([]uint32, n)
			refUsed := kernels.UnpackRef(packed, ref, b)
			fastUsed := kernels.Unpack(packed, fast, b)
			if b == 0 {
				refUsed = 0 // the b=0 reference loop reads no bytes
			}
			if refUsed != fastUsed {
				return fmt.Errorf("Unpack used %d bytes, UnpackRef %d (b=%d n=%d)", fastUsed, refUsed, b, n)
			}
			if i := diffU32(fast, ref); i >= 0 {
				return fmt.Errorf("Unpack[%d]=%d != UnpackRef[%d]=%d (b=%d n=%d ones=%v)", i, fast[i], i, ref[i], b, n, ones)
			}

			// Vertical 4-lane layout, full 128-value blocks.
			var block [128]uint32
			fill(block[:], ones)
			vpacked := kernels.VPack128(nil, &block, b)
			var vref, vfast [128]uint32
			kernels.VUnpackRef(vpacked, &vref, b)
			kernels.VUnpack(vpacked, &vfast, b)
			if i := diffU32(vfast[:], vref[:]); i >= 0 {
				return fmt.Errorf("VUnpack[%d]=%d != VUnpackRef[%d]=%d (b=%d ones=%v)", i, vfast[i], i, vref[i], b, ones)
			}

			// Fused delta decode: out[i] = prev + gaps[0..i], wrapping
			// uint32 arithmetic, against a scalar prefix sum over the
			// reference-decoded gaps.
			prev := rng.Uint32()
			var dfast [127]uint32
			kernels.VUnpackDelta(vpacked, &dfast, prev, b)
			acc := prev
			for i := 0; i < 127; i++ {
				acc += vref[i]
				if dfast[i] != acc {
					return fmt.Errorf("VUnpackDelta[%d]=%d, want %d (b=%d prev=%d)", i, dfast[i], acc, b, prev)
				}
			}

			// Fused base decode: out[i] = base + offsets[i].
			base := rng.Uint32()
			var bfast [127]uint32
			kernels.VUnpackBase(vpacked, &bfast, base, b)
			for i := 0; i < 127; i++ {
				if want := base + vref[i]; bfast[i] != want {
					return fmt.Errorf("VUnpackBase[%d]=%d, want %d (b=%d base=%d)", i, bfast[i], want, b, base)
				}
			}
		}
	}
	return nil
}

// diffU32 returns the first index where a and b differ, or -1.
func diffU32(a, b []uint32) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// oracleCorpus builds a small randomized index plus query terms; the
// codec rotates with the seed so every registered codec serves as the
// persisted format across a seed sweep.
func oracleCorpus(seed int64) (*index.Index, []string, string, error) {
	docs, vocab := load.GenCorpus(seed, 120+int(seed%7)*20, 30)
	all := append(codecs.All(), codecs.Extensions()...)
	codec := all[int(seed)%len(all)]
	b := index.NewBuilder(codec)
	for _, d := range docs {
		b.AddDocument(d)
	}
	idx, err := b.Build()
	if err != nil {
		return nil, nil, "", fmt.Errorf("building with %s: %w", codec.Name(), err)
	}
	return idx, vocab, codec.Name(), nil
}

// queryDiff compares and/or/top-k answers between two indexes over
// random term samples, returning a description of the first mismatch.
func queryDiff(rng *rand.Rand, a, b *index.Index, vocab []string) error {
	for q := 0; q < 16; q++ {
		k := 1 + rng.Intn(3)
		terms := make([]string, k)
		for i := range terms {
			terms[i] = vocab[rng.Intn(len(vocab))]
		}
		wa, _ := a.Conjunctive(terms...)
		wb, err := b.Conjunctive(terms...)
		if err != nil {
			return fmt.Errorf("conjunctive %v: %w", terms, err)
		}
		if len(wa) != len(wb) || diffU32(wa, wb) >= 0 {
			return fmt.Errorf("conjunctive %v: %d vs %d docs", terms, len(wa), len(wb))
		}
		oa, _ := a.Disjunctive(terms...)
		ob, err := b.Disjunctive(terms...)
		if err != nil {
			return fmt.Errorf("disjunctive %v: %w", terms, err)
		}
		if len(oa) != len(ob) || diffU32(oa, ob) >= 0 {
			return fmt.Errorf("disjunctive %v: %d vs %d docs", terms, len(oa), len(ob))
		}
		ta, _ := a.TopK(5, terms...)
		tb, err := b.TopK(5, terms...)
		if err != nil {
			return fmt.Errorf("topk %v: %w", terms, err)
		}
		if len(ta) != len(tb) {
			return fmt.Errorf("topk %v: %d vs %d results", terms, len(ta), len(tb))
		}
		for i := range ta {
			if ta[i] != tb[i] {
				return fmt.Errorf("topk %v rank %d: %+v vs %+v", terms, i, ta[i], tb[i])
			}
		}
	}
	return nil
}

// CheckIndexFile compares the in-memory index against its BVIX3 mmap
// read path and its stream roundtrip (WriteTo/Read).
func CheckIndexFile(seed int64, dir string) error {
	mem, vocab, codecName, err := oracleCorpus(seed)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("oracle_%d.bvix", seed))
	if err := mem.WriteFile(path, index.FormatBVIX3); err != nil {
		return fmt.Errorf("%s: WriteFile bvix3: %w", codecName, err)
	}
	mapped, err := index.OpenFile(path)
	if err != nil {
		return fmt.Errorf("%s: OpenFile bvix3: %w", codecName, err)
	}
	defer mapped.Close()
	rng := rand.New(rand.NewSource(seed + 2))
	if err := queryDiff(rng, mem, mapped, vocab); err != nil {
		return fmt.Errorf("%s: bvix3 vs in-memory: %w", codecName, err)
	}

	var buf bytes.Buffer
	if _, err := mem.WriteTo(&buf); err != nil {
		return fmt.Errorf("%s: WriteTo stream: %w", codecName, err)
	}
	streamed, err := index.Read(&buf)
	if err != nil {
		return fmt.Errorf("%s: Read stream: %w", codecName, err)
	}
	if err := queryDiff(rng, mem, streamed, vocab); err != nil {
		return fmt.Errorf("%s: stream vs in-memory: %w", codecName, err)
	}
	return nil
}

// CheckDegraded tail-corrupts a persisted index and requires the
// degraded open to be loss-only: every term serves either its exact
// pristine postings or nothing. If the bit flips happen to land in
// slack bytes and the strict open still passes, the file must instead
// be fully identical to pristine — either way, never wrong data.
func CheckDegraded(seed int64, dir string) error {
	mem, vocab, codecName, err := oracleCorpus(seed)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("oracle_deg_%d.bvix", seed))
	if err := mem.WriteFile(path, index.FormatBVIX3); err != nil {
		return fmt.Errorf("%s: WriteFile: %w", codecName, err)
	}
	if err := faultio.CorruptFile(faultio.OS, path, seed); err != nil {
		return fmt.Errorf("corrupting: %w", err)
	}

	opened, strictErr := index.OpenFile(path)
	if strictErr == nil {
		// Flips landed outside any checksummed region; results must be
		// untouched.
		defer opened.Close()
		rng := rand.New(rand.NewSource(seed + 3))
		if err := queryDiff(rng, mem, opened, vocab); err != nil {
			return fmt.Errorf("%s: strict open of corrupted file diverged: %w", codecName, err)
		}
		return nil
	}

	deg, err := index.OpenFileDegraded(path)
	if err != nil {
		return fmt.Errorf("%s: degraded open failed after strict open failed (%v): %w", codecName, strictErr, err)
	}
	defer deg.Close()
	if !deg.Health().Degraded {
		return fmt.Errorf("%s: degraded open of corrupted file reports healthy", codecName)
	}
	quarantined := 0
	for _, t := range vocab {
		want, _ := mem.Conjunctive(t)
		got, err := deg.Conjunctive(t)
		if err != nil {
			return fmt.Errorf("%s: degraded conjunctive %q: %w", codecName, t, err)
		}
		if len(got) == 0 {
			if len(want) != 0 {
				quarantined++
			}
			continue
		}
		if len(got) != len(want) || diffU32(got, want) >= 0 {
			return fmt.Errorf("%s: degraded term %q served %d docs != pristine %d — wrong data, not loss", codecName, t, len(got), len(want))
		}
	}
	_ = quarantined // zero is legal: quarantine granularity can exceed the damaged terms
	return nil
}

// CheckHybrid compares the adaptive hybrid index — per-term codec
// selection at build time, persisted in the BVIX3 codec byte — against
// a mono-codec index over the same corpus. A stopword prepended to
// every document forces at least one dense bitmap pick next to the
// corpus's sparse lists, so queries cross codec families.
func CheckHybrid(seed int64, dir string) error {
	docs, vocab, codecName, err := hybridCorpusParts(seed)
	if err != nil {
		return err
	}
	auto := index.NewAutoBuilder()
	mono := index.NewBuilder(mustCodec(codecName))
	for _, d := range docs {
		auto.AddDocument("the " + d)
		mono.AddDocument("the " + d)
	}
	hybrid, err := auto.Build()
	if err != nil {
		return fmt.Errorf("auto build: %w", err)
	}
	truth, err := mono.Build()
	if err != nil {
		return fmt.Errorf("%s build: %w", codecName, err)
	}
	if len(hybrid.CodecMix()) < 2 {
		return fmt.Errorf("adaptive build chose a single codec %v for a mixed corpus", hybrid.CodecMix())
	}

	probes := append([]string{"the"}, vocab...)
	rng := rand.New(rand.NewSource(seed + 4))
	if err := queryDiff(rng, truth, hybrid, probes); err != nil {
		return fmt.Errorf("in-memory hybrid vs %s: %w", codecName, err)
	}
	path := filepath.Join(dir, fmt.Sprintf("oracle_hyb_%d.bvix", seed))
	if err := hybrid.WriteFile(path, index.FormatBVIX3); err != nil {
		return fmt.Errorf("WriteFile bvix3: %w", err)
	}
	mapped, err := index.OpenFile(path)
	if err != nil {
		return fmt.Errorf("OpenFile bvix3: %w", err)
	}
	defer mapped.Close()
	if err := queryDiff(rng, truth, mapped, probes); err != nil {
		return fmt.Errorf("reopened hybrid vs %s: %w", codecName, err)
	}
	// The persisted codec bytes must reproduce the builder's decisions.
	for _, term := range probes {
		if got, want := mapped.TermCodec(term), hybrid.TermCodec(term); got != want {
			return fmt.Errorf("term %q codec byte roundtrip: reopened %q, built %q", term, got, want)
		}
	}
	return nil
}

// hybridCorpusParts returns the raw corpus, vocabulary, and the
// mono-codec truth codec for a seed. The truth codec rotates through
// the registry like oracleCorpus, skipping none: any codec must agree
// with the adaptive pick.
func hybridCorpusParts(seed int64) ([]string, []string, string, error) {
	docs, vocab := load.GenCorpus(seed, 120+int(seed%7)*20, 30)
	all := append(codecs.All(), codecs.Extensions()...)
	return docs, vocab, all[int(seed+13)%len(all)].Name(), nil
}

func mustCodec(name string) core.Codec {
	c, err := codecs.ByName(name)
	if err != nil {
		panic(err)
	}
	return c
}

// CheckMixedIntersect drives ops.Intersect's mixed bitmap×list kernel
// and galloping SvS against the plain sorted-slice merge on skewed
// pairs up to 10^4:1, with the bitmap side rotating Roaring/Roaring+Run
// and the list side rotating the blocked SIMD codecs.
func CheckMixedIntersect(seed int64) error {
	rng := rand.New(rand.NewSource(seed + 5))
	bitmaps := []string{"Roaring", "Roaring+Run"}
	lists := []string{"SIMDBP128*", "SIMDPforDelta*", "VB"}
	ratios := []int{1, 40, 1000, 10000}
	for round, ratio := range ratios {
		// Dense side: clustered regions (runs and bitmap containers) —
		// large enough that ratio drives real skew.
		var dense []uint32
		base := uint32(0)
		for r := 0; r < 1+rng.Intn(4); r++ {
			base += uint32(1 + rng.Intn(1<<17))
			step := uint32(1 + rng.Intn(2))
			n := 1 + rng.Intn(ratio*40)
			for i := 0; i < n; i++ {
				dense = append(dense, base)
				base += step
			}
		}
		// Sparse side: mostly samples of the dense side (guaranteed
		// hits) with some misses mixed in.
		m := 1 + len(dense)/max(ratio, 1)
		sparse := make([]uint32, 0, m)
		seen := map[uint32]struct{}{}
		for len(seen) < m {
			var v uint32
			if rng.Intn(3) > 0 {
				v = dense[rng.Intn(len(dense))]
			} else {
				v = uint32(rng.Intn(int(base) + 64))
			}
			if _, dup := seen[v]; !dup {
				seen[v] = struct{}{}
				sparse = append(sparse, v)
			}
		}
		sortU32(sparse)

		want := ops.IntersectSorted(append([]uint32(nil), dense...), sparse)
		bmCodec := mustCodec(bitmaps[(round+int(seed))%len(bitmaps)])
		listCodec := mustCodec(lists[(round+int(seed))%len(lists)])
		bp, err := bmCodec.Compress(dense)
		if err != nil {
			return fmt.Errorf("%s: %w", bmCodec.Name(), err)
		}
		lp, err := listCodec.Compress(sparse)
		if err != nil {
			return fmt.Errorf("%s: %w", listCodec.Name(), err)
		}
		for _, pair := range [][2]core.Posting{{bp, lp}, {lp, bp}} {
			ref, err := ops.Intersect(pair[:])
			if err != nil {
				return fmt.Errorf("ratio %d: ops.Intersect: %w", ratio, err)
			}
			if len(ref) != len(want) || diffU32(ref, want) >= 0 {
				return fmt.Errorf("ratio %d %s×%s: ops.Intersect %d docs, slice merge %d",
					ratio, bmCodec.Name(), listCodec.Name(), len(ref), len(want))
			}
		}
	}
	return nil
}

// CheckTopK drives the pruned ranked-retrieval algorithm against
// exhaustive evaluation on randomized corpora and query mixes — in
// memory (derived impacts) and through a BVIX3 v4 write and reopen
// (stored impact annotations, lazy block-decoding cursors). Every
// algorithm name must return the identical result list: same documents,
// same scores, same order, including the ascending-docid tie-break and
// k far beyond the result count. The exhaustive evaluation is itself
// cross-checked between the two views, so a divergence pins the failure
// to either the pruning logic or the impacts persistence, not both.
func CheckTopK(seed int64, dir string) error {
	mem, vocab, codecName, err := oracleCorpus(seed)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("oracle_topk_%d.bvix", seed))
	if err := mem.WriteFile(path, index.FormatBVIX3Impacts); err != nil {
		return fmt.Errorf("%s: WriteFile bvix3+impacts: %w", codecName, err)
	}
	mapped, err := index.OpenFile(path)
	if err != nil {
		return fmt.Errorf("%s: OpenFile bvix3+impacts: %w", codecName, err)
	}
	defer mapped.Close()

	rng := rand.New(rand.NewSource(seed + 6))
	ks := []int{1, 5, 20, 100000}
	for q := 0; q < 24; q++ {
		terms := make([]string, 1+rng.Intn(4))
		for i := range terms {
			terms[i] = vocab[rng.Intn(len(vocab))]
		}
		k := ks[rng.Intn(len(ks))]
		want, err := mem.TopKWith("exhaustive", k, nil, terms...)
		if err != nil {
			return fmt.Errorf("%s: exhaustive k=%d %v: %w", codecName, k, terms, err)
		}
		for _, view := range []struct {
			name string
			idx  *index.Index
		}{{"in-memory", mem}, {"v4-mapped", mapped}} {
			for _, algo := range []string{"exhaustive", "bmw", "auto"} {
				got, err := view.idx.TopKWith(algo, k, nil, terms...)
				if err != nil {
					return fmt.Errorf("%s: %s %s k=%d %v: %w", codecName, view.name, algo, k, terms, err)
				}
				if len(got) != len(want) {
					return fmt.Errorf("%s: %s %s k=%d %v: %d results, exhaustive %d",
						codecName, view.name, algo, k, terms, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						return fmt.Errorf("%s: %s %s k=%d %v rank %d: %+v, exhaustive %+v",
							codecName, view.name, algo, k, terms, i, got[i], want[i])
					}
				}
			}
		}
	}
	return nil
}

// sortU32 is an insertion-free ascending sort for oracle scratch.
func sortU32(a []uint32) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// CheckSharded compares the doc-partitioned scatter-gather router
// against the unpartitioned index it was split from: the merge must be
// byte-identical, not merely equivalent. The corpus is partitioned
// round-robin across 1, 2, 4, and 8 shards (each shard its own index,
// codec rotating with the seed) and queried through shard.Router on
// and/or (sorted merged postings vs Conjunctive/Disjunctive) and top-k
// with k in {1, 5, 20, 100000} vs exhaustive
// evaluation. For the 4-shard split the shard files and checksummed
// manifest also make a disk roundtrip — written the way `bvindex
// -partition` writes them, verified, reopened via mmap — and must
// still agree.
func CheckSharded(seed int64, dir string) error {
	docs, vocab := load.GenCorpus(seed, 130+int(seed%5)*20, 30)
	all := append(codecs.All(), codecs.Extensions()...)
	codec := all[int(seed)%len(all)]
	b := index.NewBuilder(codec)
	for _, d := range docs {
		b.AddDocument(d)
	}
	mem, err := b.Build()
	if err != nil {
		return fmt.Errorf("building with %s: %w", codec.Name(), err)
	}

	buildShards := func(n int) ([]*index.Index, error) {
		parts, err := shard.Partition(docs, n)
		if err != nil {
			return nil, err
		}
		out := make([]*index.Index, n)
		for s, part := range parts {
			sb := index.NewBuilder(codec)
			for _, d := range part {
				sb.AddDocument(d)
			}
			if out[s], err = sb.Build(); err != nil {
				return nil, fmt.Errorf("shard %d: %w", s, err)
			}
		}
		return out, nil
	}
	routerOver := func(idxs []*index.Index) (*shard.Router, error) {
		replicas := make([][]shard.Backend, len(idxs))
		for s, idx := range idxs {
			replicas[s] = []shard.Backend{&shard.IndexBackend{Idx: idx, Label: fmt.Sprintf("shard-%d", s)}}
		}
		return shard.NewRouter(shard.RouterConfig{}, replicas)
	}

	ctx := context.Background()
	ks := []int{1, 5, 20, 100000}
	verify := func(r *shard.Router, n int, qseed int64, rounds int) error {
		rng := rand.New(rand.NewSource(qseed))
		for q := 0; q < rounds; q++ {
			terms := make([]string, 1+rng.Intn(4))
			for i := range terms {
				terms[i] = vocab[rng.Intn(len(vocab))]
			}
			wantAnd, _ := mem.Conjunctive(terms...)
			gotAnd, err := r.Search(ctx, shard.Request{Mode: "and", Terms: terms})
			if err != nil || gotAnd.Partial {
				return fmt.Errorf("%s n=%d: and %v: partial=%v err=%v", codec.Name(), n, terms, gotAnd.Partial, err)
			}
			if len(gotAnd.Docs) != len(wantAnd) || diffU32(gotAnd.Docs, wantAnd) >= 0 {
				return fmt.Errorf("%s n=%d: and %v: %d docs, reference %d", codec.Name(), n, terms, len(gotAnd.Docs), len(wantAnd))
			}
			wantOr, _ := mem.Disjunctive(terms...)
			gotOr, err := r.Search(ctx, shard.Request{Mode: "or", Terms: terms})
			if err != nil || gotOr.Partial {
				return fmt.Errorf("%s n=%d: or %v: partial=%v err=%v", codec.Name(), n, terms, gotOr.Partial, err)
			}
			if len(gotOr.Docs) != len(wantOr) || diffU32(gotOr.Docs, wantOr) >= 0 {
				return fmt.Errorf("%s n=%d: or %v: %d docs, reference %d", codec.Name(), n, terms, len(gotOr.Docs), len(wantOr))
			}
			k := ks[rng.Intn(len(ks))]
			want, err := mem.TopKWith("exhaustive", k, nil, terms...)
			if err != nil {
				return fmt.Errorf("%s: exhaustive k=%d %v: %w", codec.Name(), k, terms, err)
			}
			got, err := r.Search(ctx, shard.Request{Mode: "topk", Terms: terms, K: k})
			if err != nil || got.Partial {
				return fmt.Errorf("%s n=%d: topk k=%d %v: partial=%v err=%v", codec.Name(), n, k, terms, got.Partial, err)
			}
			if len(got.Ranked) != len(want) {
				return fmt.Errorf("%s n=%d: topk k=%d %v: %d results, exhaustive %d",
					codec.Name(), n, k, terms, len(got.Ranked), len(want))
			}
			for i := range got.Ranked {
				if got.Ranked[i] != want[i] {
					return fmt.Errorf("%s n=%d: topk k=%d %v rank %d: %+v, exhaustive %+v",
						codec.Name(), n, k, terms, i, got.Ranked[i], want[i])
				}
			}
		}
		return nil
	}

	for _, n := range []int{1, 2, 4, 8} {
		idxs, err := buildShards(n)
		if err != nil {
			return err
		}
		r, err := routerOver(idxs)
		if err != nil {
			return err
		}
		if err := verify(r, n, seed+int64(7+n), 16); err != nil {
			return err
		}
	}

	// Disk roundtrip at n=4: shard files + checksummed manifest, the
	// exact layout `bvindex -partition` publishes, reopened via mmap.
	const n = 4
	idxs, err := buildShards(n)
	if err != nil {
		return err
	}
	m := &shard.Map{Version: shard.MapVersion, Partition: "mod", Shards: n, Docs: len(docs)}
	for s, idx := range idxs {
		path := filepath.Join(dir, shard.FileName(s))
		if err := idx.WriteFile(path, index.FormatBVIX3Impacts); err != nil {
			return fmt.Errorf("%s: writing shard %d: %w", codec.Name(), s, err)
		}
		e, err := shard.EntryFor(path, idx.Docs(), idx.Terms())
		if err != nil {
			return err
		}
		m.Entries = append(m.Entries, e)
	}
	mapPath := filepath.Join(dir, "oracle_shards.json")
	if err := shard.WriteMap(mapPath, m); err != nil {
		return err
	}
	loaded, err := shard.LoadMap(mapPath)
	if err != nil {
		return fmt.Errorf("reloading manifest: %w", err)
	}
	if err := loaded.VerifyFiles(dir); err != nil {
		return fmt.Errorf("verifying shard files: %w", err)
	}
	mapped := make([]*index.Index, n)
	for s, e := range loaded.Entries {
		if mapped[s], err = index.OpenFile(filepath.Join(dir, e.File)); err != nil {
			return fmt.Errorf("reopening shard %d: %w", s, err)
		}
		defer mapped[s].Close()
	}
	r, err := routerOver(mapped)
	if err != nil {
		return err
	}
	return verify(r, n, seed+29, 16)
}
