package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/ops"
)

// serialize4 captures WriteBVIX3Impacts output (a BVIX3 v4 file).
func serialize4(t testing.TB, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := idx.WriteBVIX3Impacts(&buf)
	if err != nil {
		t.Fatalf("WriteBVIX3Impacts: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteBVIX3Impacts reported %d bytes, wrote %d", n, buf.Len())
	}
	return buf.Bytes()
}

// openLazy4 writes idx as BVIX3 v4 to a temp file and opens it through
// the mmap-backed lazy path.
func openLazy4(t testing.TB, idx *Index) *Index {
	t.Helper()
	p := filepath.Join(t.TempDir(), "idx.bvix4")
	if err := os.WriteFile(p, serialize4(t, idx), 0o644); err != nil {
		t.Fatal(err)
	}
	lazy, err := OpenFile(p)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	return lazy
}

// reseal4Header recomputes the v4 header checksum after a mutation.
func reseal4Header(file []byte) {
	hs := bvix3HeaderSizeFor(4)
	binary.LittleEndian.PutUint32(file[hs-4:],
		crc32.Checksum(file[len(bvix3Magic):hs-4], castagnoli))
}

// sectionOffsets4 reads the four (offset, length) pairs of a v4 header.
func sectionOffsets4(file []byte) (secs [4][2]uint64) {
	for i := range secs {
		p := 24 + i*20
		secs[i] = [2]uint64{
			binary.LittleEndian.Uint64(file[p:]),
			binary.LittleEndian.Uint64(file[p+8:]),
		}
	}
	return secs
}

// topkAlgos pins every evaluation algorithm for differential checks.
var topkAlgos = []string{"exhaustive", "bmw"}

// bruteIndexTopK recomputes the expected ranked result straight from
// decoded postings and quantized frequencies.
func bruteIndexTopK(t *testing.T, idx *Index, k int, terms ...string) []Result {
	t.Helper()
	scores := map[uint32]int{}
	for _, term := range terms {
		e, ok := idx.entry(term)
		if !ok {
			continue
		}
		for i, d := range e.posting.Decompress() {
			var f uint16
			if i < len(e.freqs) {
				f = e.freqs[i]
			}
			scores[d] += int(QuantizeImpact(f))
		}
	}
	all := make([]Result, 0, len(scores))
	for d, s := range scores {
		all = append(all, Result{Doc: d, Score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	if len(all) > k {
		all = all[:k]
	}
	if len(all) == 0 {
		return nil
	}
	return all
}

// checkTopKAllAlgos asserts every pinned algorithm (and auto) returns
// exactly the brute-force ranking on idx.
func checkTopKAllAlgos(t *testing.T, idx *Index, k int, terms ...string) {
	t.Helper()
	want := bruteIndexTopK(t, idx, k, terms...)
	for _, algo := range append([]string{"auto"}, topkAlgos...) {
		got, err := idx.TopKWith(algo, k, nil, terms...)
		if err != nil {
			t.Fatalf("TopKWith(%s, %d, %v): %v", algo, k, terms, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("TopKWith(%s, %d, %v) = %v, want %v", algo, k, terms, got, want)
		}
	}
}

func TestBVIX3ImpactsRoundTrip(t *testing.T) {
	queries := [][]string{
		{"compressed"},
		{"compressed", "lists"},
		{"roaring", "pfordelta", "bitmap"},
		{"compressed", "nonexistent"},
		{"nonexistent"},
	}
	for _, codecName := range []string{"Roaring", "PEF", "VB", "WAH"} {
		idx := buildTestIndex(t, codecName)
		file := serialize4(t, idx)
		if file[len(bvix3Magic)] != bvix3VersionImpacts {
			t.Fatalf("%s: version byte = %d, want %d", codecName, file[len(bvix3Magic)], bvix3VersionImpacts)
		}
		eager, err := Read(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("%s: eager Read of v4: %v", codecName, err)
		}
		lazy := openLazy4(t, idx)
		defer lazy.Close()
		for _, view := range []*Index{idx, eager, lazy} {
			for _, q := range queries {
				for _, k := range []int{1, 2, 3, 100} {
					checkTopKAllAlgos(t, view, k, q...)
				}
			}
		}
		// The three views must agree with each other, not just rank alike.
		for _, q := range queries {
			want, _ := idx.TopK(3, q...)
			for _, view := range []*Index{eager, lazy} {
				got, err := view.TopK(3, q...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: reopened TopK(%v) = %v, want %v", codecName, q, got, want)
				}
			}
		}
	}
}

// TestBVIX3ImpactsConverter: WriteBVIX3Impacts recomputes annotations
// deterministically from stored frequencies, so writing v4 from the
// in-memory build, from a reopened v3 file, and from a reopened v4 file
// must produce byte-identical output — the v3→v4 upgrade path.
func TestBVIX3ImpactsConverter(t *testing.T) {
	idx := buildTestIndex(t, "Roaring")
	fromMem := serialize4(t, idx)

	v3 := openLazy(t, idx)
	defer v3.Close()
	fromV3 := serialize4(t, v3)
	if !bytes.Equal(fromMem, fromV3) {
		t.Fatal("v4 from reopened v3 differs from v4 from memory")
	}

	v4 := openLazy4(t, idx)
	defer v4.Close()
	fromV4 := serialize4(t, v4)
	if !bytes.Equal(fromMem, fromV4) {
		t.Fatal("v4 rewrite of a reopened v4 is not idempotent")
	}
}

// TestTopKImpactLessFallback: old impact-less indexes (in-memory, BVIX3
// v3) still answer ranked queries — impacts derive on the fly from
// the frequency payload, and absent frequencies degrade to document
// counting.
func TestTopKImpactLessFallback(t *testing.T) {
	idx := buildTestIndex(t, "VB")
	want, err := idx.TopK(3, "compressed", "lists")
	if err != nil || len(want) == 0 {
		t.Fatalf("in-memory TopK = %v, %v", want, err)
	}

	v3 := openLazy(t, idx)
	defer v3.Close()
	for name, view := range map[string]*Index{"bvix3": v3} {
		got, err := view.TopK(3, "compressed", "lists")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TopK = %v, want %v", name, got, want)
		}
		// Pinning bmw on an impact-less index must still be exact: the
		// lists fall back to derived annotations over decoded postings.
		checkTopKAllAlgos(t, view, 2, "compressed", "lists")
	}

	// No frequency payload at all: the document-count scorer. Every
	// posting contributes exactly 1.
	bare := &Index{docs: 8, terms: map[string]termEntry{}}
	p, err := mustCodec(t, "VB").Compress([]uint32{1, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	bare.terms["x"] = termEntry{posting: p, codec: "VB"}
	got, err := bare.TopK(2, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []Result{{Doc: 1, Score: 1}, {Doc: 3, Score: 1}}) {
		t.Fatalf("document-count fallback = %v", got)
	}
}

// skewedDocs builds a corpus with genuinely long posting lists (many
// 128-posting blocks): a handful of common words with varied repetition
// plus rare terms confined to scattered documents — the shape Block-Max
// pruning exists for.
func skewedDocs(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	docs := make([]string, n)
	for d := range docs {
		var sb strings.Builder
		// Common words: long lists, impact pinned at 1 — the lists
		// pruning must learn to skip once the threshold clears 1.
		if rng.Intn(100) < 70 {
			fmt.Fprintf(&sb, "common%d ", rng.Intn(4))
		}
		// Mid-frequency word with impact variety.
		if rng.Intn(20) == 0 {
			for r := 1 + rng.Intn(3); r > 0; r-- {
				sb.WriteString("mid ")
			}
		}
		// Rare, high-impact word: its documents set the threshold.
		if rng.Intn(300) == 0 {
			for r := 4 + rng.Intn(4); r > 0; r-- {
				sb.WriteString("rare ")
			}
		}
		if sb.Len() == 0 {
			sb.WriteString("filler")
		}
		docs[d] = sb.String()
	}
	return docs
}

// TestTopKPrunedMatchesExhaustiveProperty is the differential property
// test: across seeded corpora, codecs, query shapes, and k (including
// k far beyond the result count), Block-Max-WAND returns
// exactly the exhaustive ranking — through BVIX3 v4 write and reopen,
// where the pruned evaluation runs over lazily decoded blocks.
func TestTopKPrunedMatchesExhaustiveProperty(t *testing.T) {
	queries := [][]string{
		{"rare"},
		{"common0"},
		{"rare", "common1"},
		{"rare", "mid"},
		{"mid", "common2"},
		{"common0", "common1", "common2"},
		{"rare", "mid", "common0", "common3", "nonexistent"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, codecName := range []string{"VB", "Roaring"} {
			b := NewBuilder(mustCodec(t, codecName))
			for _, d := range skewedDocs(3000, seed) {
				b.AddDocument(d)
			}
			built, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			lazy := openLazy4(t, built)
			for _, q := range queries {
				for _, k := range []int{1, 10, 100, 100000} {
					checkTopKAllAlgos(t, lazy, k, q...)
				}
			}
			lazy.Close()
		}
	}
}

// TestTopKBlockMaxSkipsBlocks proves the point of the tentpole: on a
// selective query over a v4 file with list-coded postings, Block-Max
// pruning materializes strictly fewer posting blocks than exhaustive
// evaluation, while returning the identical ranking.
func TestTopKBlockMaxSkipsBlocks(t *testing.T) {
	// A corpus shaped for pruning: "common0" spans dozens of 128-posting
	// blocks at impact 1, while "rare" hits a handful of scattered
	// documents at impact 4-7. Once the heap threshold clears 1, no
	// common0-only document can win, so Block-Max evaluation should only
	// materialize the common0 blocks that contain a rare document.
	rng := rand.New(rand.NewSource(99))
	b := NewBuilder(mustCodec(t, "VB"))
	for i := 0; i < 20000; i++ {
		var sb strings.Builder
		if rng.Intn(100) < 70 {
			fmt.Fprintf(&sb, "common%d ", rng.Intn(4))
		}
		if rng.Intn(2000) == 0 {
			for r := 4 + rng.Intn(4); r > 0; r-- {
				sb.WriteString("rare ")
			}
		}
		if sb.Len() == 0 {
			sb.WriteString("filler")
		}
		b.AddDocument(sb.String())
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lazy := openLazy4(t, built)
	defer lazy.Close()

	query := []string{"rare", "common0"}
	if built.Postings("rare").Len() < 3 {
		t.Fatal("seed produced too few rare documents")
	}
	var ex, bmw ops.TopKStats
	wantRes, err := lazy.TopKWith("exhaustive", 10, &ex, query...)
	if err != nil {
		t.Fatal(err)
	}
	gotRes, err := lazy.TopKWith("bmw", 10, &bmw, query...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("bmw = %v, want %v", gotRes, wantRes)
	}
	if ex.BlocksTotal < 10 {
		t.Fatalf("corpus too small to exercise pruning: %d total blocks", ex.BlocksTotal)
	}
	if ex.BlocksDecoded != ex.BlocksTotal {
		t.Fatalf("exhaustive decoded %d of %d blocks", ex.BlocksDecoded, ex.BlocksTotal)
	}
	if bmw.BlocksDecoded >= ex.BlocksDecoded {
		t.Fatalf("bmw decoded %d blocks, exhaustive %d — no pruning", bmw.BlocksDecoded, ex.BlocksDecoded)
	}
	t.Logf("blocks decoded: exhaustive %d/%d, bmw %d/%d",
		ex.BlocksDecoded, ex.BlocksTotal, bmw.BlocksDecoded, bmw.BlocksTotal)
}

// TestImpactCursorSeekGEQ checks both cursors' galloping SeekGEQ, mixed
// with Next, against a sort.Search reference over random target
// sequences that include a seek before the first Next, repeated
// targets, targets at or below the current doc, and targets past the
// end, on lists of one to ~150 blocks.
func TestImpactCursorSeekGEQ(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(20000)
		domain := n + rng.Intn(4*n)
		var docs []uint32
		var freqs []uint16
		for d := 0; d < domain && len(docs) < n; d++ {
			if rng.Intn(domain) < n {
				docs, freqs = append(docs, uint32(d)), append(freqs, uint16(rng.Intn(20)))
			}
		}
		if len(docs) == 0 {
			docs, freqs = []uint32{uint32(domain)}, []uint16{1}
		}
		p, err := mustCodec(t, "VB").Compress(docs)
		if err != nil {
			t.Fatal(err)
		}
		bd, ok := p.(core.BlockDecoder)
		if !ok || bd.BlockSpan() != impactBlockLen {
			t.Fatalf("VB posting is not a %d-wide block decoder", impactBlockLen)
		}
		meta := buildImpactMeta(docs, freqs)
		last := docs[len(docs)-1]
		for _, l := range []*termImpactList{{meta: meta, bd: bd}, {meta: meta, vals: docs}} {
			kind := "block"
			if l.bd == nil {
				kind = "array"
			}
			for walk := 0; walk < 8; walk++ {
				c := l.Cursor()
				pos := -1 // the reference cursor
				var target uint32
				for op := 0; op < 120; op++ {
					var got, want uint32
					var gotOK, wantOK bool
					// Even walks seek before their first Next.
					if (op > 0 || walk%2 == 1) && rng.Intn(5) == 0 {
						got, gotOK = c.Next()
						pos++
					} else {
						cur := docs[min(max(pos, 0), len(docs)-1)]
						switch r := rng.Intn(12); {
						case r == 0: // repeat the previous target
						case r <= 2: // at or below the current doc
							target = cur - min(cur, uint32(rng.Intn(50)))
						case r == 3: // past the end
							target = last + 1 + uint32(rng.Intn(10))
						case r <= 8: // a short hop
							target = cur + uint32(rng.Intn(300))
						default: // a long hop
							target = cur + uint32(rng.Intn(domain/8+1))
						}
						got, gotOK = c.SeekGEQ(target)
						if pos < len(docs) && (pos < 0 || docs[pos] < target) {
							lo := max(pos, 0)
							pos = lo + sort.Search(len(docs)-lo, func(i int) bool { return docs[lo+i] >= target })
						}
					}
					if pos < len(docs) {
						want, wantOK = docs[pos], true
					}
					if got != want || gotOK != wantOK {
						t.Fatalf("trial %d %s walk %d op %d (target %d): got (%d, %v), want (%d, %v)",
							trial, kind, walk, op, target, got, gotOK, want, wantOK)
					}
					if wantOK && c.Impact() != uint32(meta.quant[pos]) {
						t.Fatalf("trial %d %s walk %d op %d: impact %d, want %d",
							trial, kind, walk, op, c.Impact(), meta.quant[pos])
					}
				}
			}
		}
	}
}

// TestBVIX3ImpactsDegraded: a v4 file whose impacts section fails its
// checksum still serves every posting; only the terms whose impact
// records no longer pass their per-record CRC lose annotations, and
// ranked queries on them fall back to frequency-derived impacts —
// returning the identical results, since the stored annotations were
// derived from those same frequencies.
func TestBVIX3ImpactsDegraded(t *testing.T) {
	b := NewAutoBuilder()
	for _, d := range wideDocs(300) {
		b.AddDocument(d)
	}
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	pristine := serialize4(t, built)
	secs := sectionOffsets4(pristine)
	impOff, impLen := secs[3][0], secs[3][1]
	names, _, err := built.sortedEntries()
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		corrupt uint64
		minQ    int
	}{
		"record":       {impOff + 8*uint64(len(names)) + 9, 1}, // inside the first record's body
		"offset-table": {impOff + 3, 1},                        // high bits of term 0's record offset
		// The section's final byte may be record padding, which no
		// per-record CRC covers: the open still degrades (section CRC
		// failed) but may legitimately quarantine nothing.
		"last-byte": {impOff + impLen - 1, 0},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			mut := append([]byte{}, pristine...)
			mut[tc.corrupt] ^= 0xA5

			// The strict open paths must reject the file outright.
			if _, err := Read(bytes.NewReader(mut)); !errors.Is(err, core.ErrChecksum) {
				t.Fatalf("strict Read: %v, want ErrChecksum", err)
			}

			p := filepath.Join(t.TempDir(), "corrupt.bvix4")
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			deg, err := OpenFileDegraded(p)
			if err != nil {
				t.Fatalf("OpenFileDegraded: %v", err)
			}
			defer deg.Close()

			h := deg.Health()
			if !h.Degraded || !reflect.DeepEqual(h.QuarantinedSections, []string{"impacts"}) {
				t.Fatalf("health = %+v", h)
			}
			if h.QuarantinedTerms != 0 {
				t.Fatalf("impact damage must not withhold terms: %+v", h)
			}
			if h.QuarantinedImpacts < tc.minQ {
				t.Fatalf("quarantined %d impact records, want at least %d: %+v",
					h.QuarantinedImpacts, tc.minQ, h)
			}

			// Every posting list survives bit-exact, and ranked queries
			// return exactly the pristine results.
			for _, term := range names {
				if !reflect.DeepEqual(deg.DecodedPostings(term), built.DecodedPostings(term)) {
					t.Fatalf("term %q postings diverged", term)
				}
			}
			q := []string{names[0], names[len(names)/2], names[len(names)-1]}
			want, _ := built.TopK(10, q...)
			got, err := deg.TopK(10, q...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("degraded TopK = %v, want %v", got, want)
			}
			checkTopKAllAlgos(t, deg, 5, q...)
		})
	}
}

// TestBVIX3ImpactsRejectsBitFlips extends the v3 bit-flip sweep to v4:
// every byte of an impacts-bearing file is covered by a check.
func TestBVIX3ImpactsRejectsBitFlips(t *testing.T) {
	file := serialize4(t, buildTestIndex(t, "VB"))
	for i := range file {
		mut := make([]byte, len(file))
		copy(mut, file)
		mut[i] ^= 0x01
		_, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		if i == len(bvix3Magic) && errors.Is(err, core.ErrVersion) {
			continue
		}
		if i >= len(bvix3Magic) && !errors.Is(err, core.ErrChecksum) &&
			!strings.Contains(err.Error(), "padding") {
			t.Fatalf("flip at byte %d: got %v, want ErrChecksum or a padding error", i, err)
		}
	}
}

// TestBVIX3ImpactsTruncation: cuts anywhere — including inside the
// impacts section — and trailing garbage are rejected by both open
// paths.
func TestBVIX3ImpactsTruncation(t *testing.T) {
	file := serialize4(t, buildTestIndex(t, "PEF"))
	secs := sectionOffsets4(file)
	hs := bvix3HeaderSizeFor(4)
	cuts := []int{0, 4, len(bvix3Magic), hs - 1, hs, bvix3DataStart,
		int(secs[3][0]), int(secs[3][0] + secs[3][1]/2), len(file) - 1}
	for _, cut := range cuts {
		if _, err := Read(bytes.NewReader(file[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if _, err := openBVIX3Lazy(file[:cut], nil); err == nil {
			t.Fatalf("lazy open of truncation at %d accepted", cut)
		}
	}
	trailing := append(append([]byte{}, file...), 0)
	if _, err := Read(bytes.NewReader(trailing)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestBVIX3ImpactsLyingGeometry mutates v4-specific structure with all
// checksums resealed, so the walkImpacts validation (not a CRC) is what
// must reject: a lying offset table, an impossible block count, and a
// section-length cut landing mid-record.
func TestBVIX3ImpactsLyingGeometry(t *testing.T) {
	pristine := serialize4(t, buildTestIndex(t, "Roaring"))
	secs := sectionOffsets4(pristine)
	impOff := secs[3][0]
	resealImpacts := func(file []byte) {
		s := sectionOffsets4(file)
		binary.LittleEndian.PutUint32(file[24+3*20+16:],
			crc32.Checksum(file[s[3][0]:s[3][0]+s[3][1]], castagnoli))
		reseal4Header(file)
	}

	t.Run("offset-table-lies", func(t *testing.T) {
		mut := append([]byte{}, pristine...)
		binary.LittleEndian.PutUint64(mut[impOff:], 1) // misaligned, wrong
		resealImpacts(mut)
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatal("lying offset table accepted")
		}
		if _, err := openBVIX3Lazy(mut, nil); err == nil {
			t.Fatal("lazy open accepted lying offset table")
		}
	})

	t.Run("block-count-lies", func(t *testing.T) {
		mut := append([]byte{}, pristine...)
		// First record's block count field (after the offset table).
		names, _, err := buildTestIndex(t, "Roaring").sortedEntries()
		if err != nil {
			t.Fatal(err)
		}
		rec0 := impOff + 8*uint64(len(names))
		binary.LittleEndian.PutUint32(mut[rec0+4:], 7)
		resealImpacts(mut)
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatal("lying block count accepted")
		}
	})
}

// mustCodec resolves a codec name or fails the test.
func mustCodec(t testing.TB, name string) core.Codec {
	t.Helper()
	c, err := codecs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
