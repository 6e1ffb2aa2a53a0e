package index

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/faultio"
	"repro/internal/ops"
)

// naiveLive recomputes the truth for a live index: the surviving
// documents rebuilt from scratch with the plain Builder, queried
// through the ordinary Index paths, with docids mapped back to the
// live global ids.
type naiveLive struct {
	ids  []uint32 // surviving global ids, ascending
	idx  *Index
	back map[uint32]uint32 // local -> global
}

func buildNaive(t *testing.T, docs map[uint32]string) *naiveLive {
	t.Helper()
	ids := make([]uint32, 0, len(docs))
	for id := range docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := NewAutoBuilder()
	back := map[uint32]uint32{}
	for i, id := range ids {
		b.AddDocument(docs[id])
		back[uint32(i)] = id
	}
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &naiveLive{ids: ids, idx: idx, back: back}
}

func (n *naiveLive) conjunctive(t *testing.T, terms ...string) []uint32 {
	t.Helper()
	local, err := n.idx.Conjunctive(terms...)
	if err != nil {
		t.Fatal(err)
	}
	return n.globals(local)
}

func (n *naiveLive) disjunctive(t *testing.T, terms ...string) []uint32 {
	t.Helper()
	local, err := n.idx.Disjunctive(terms...)
	if err != nil {
		t.Fatal(err)
	}
	return n.globals(local)
}

func (n *naiveLive) globals(locals []uint32) []uint32 {
	out := make([]uint32, len(locals))
	for i, l := range locals {
		out[i] = n.back[l]
	}
	return out
}

// topk computes the global-id ranking: score descending, GLOBAL docid
// ascending on ties (local tie order equals global tie order because
// the mapping is monotonic).
func (n *naiveLive) topk(t *testing.T, k int, terms ...string) []Result {
	t.Helper()
	rs, err := n.idx.TopK(k, terms...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{Doc: n.back[r.Doc], Score: r.Score}
	}
	return out
}

// checkLiveMatches asserts every query mode agrees between live and
// the naive rebuild of docs.
func checkLiveMatches(t *testing.T, l *Live, docs map[uint32]string, queries [][]string) {
	t.Helper()
	n := buildNaive(t, docs)
	if got := l.Docs(); got != len(docs) {
		t.Fatalf("live reports %d visible docs, want %d", got, len(docs))
	}
	for _, q := range queries {
		and, err := l.Conjunctive(q...)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.conjunctive(t, q...); !equalU32s(and, want) {
			t.Fatalf("AND %v: live %v, naive %v", q, and, want)
		}
		or, err := l.Disjunctive(q...)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.disjunctive(t, q...); !equalU32s(or, want) {
			t.Fatalf("OR %v: live %v, naive %v", q, or, want)
		}
		tk, err := l.TopK(3, q...)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.topk(t, 3, q...); !(len(tk) == 0 && len(want) == 0) && !reflect.DeepEqual(tk, want) {
			t.Fatalf("TOPK %v: live %v, naive %v", q, tk, want)
		}
	}
}

func equalU32s(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

var liveQueries = [][]string{
	{"alpha"}, {"beta"}, {"gamma"}, {"delta"},
	{"alpha", "beta"}, {"beta", "gamma"}, {"alpha", "gamma", "delta"},
	{"absent"}, {"alpha", "absent"},
}

func TestLiveBasicLifecycle(t *testing.T) {
	l, err := OpenLive(t.TempDir(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	docs := map[uint32]string{}
	texts := []string{
		"alpha beta", "beta gamma", "alpha gamma delta",
		"delta beta", "alpha alpha beta", "gamma delta",
	}
	for _, text := range texts {
		id, err := l.Add(text)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = text
	}
	checkLiveMatches(t, l, docs, liveQueries)

	// Seal and re-check: answers must not move when docs go immutable.
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Segments != 1 || s.MemDocs != 0 {
		t.Fatalf("after seal: %+v", s)
	}
	checkLiveMatches(t, l, docs, liveQueries)

	// A second generation plus deletions across both.
	for _, text := range []string{"alpha omega", "omega beta gamma"} {
		id, err := l.Add(text)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = text
	}
	if err := l.Delete(0); err != nil { // sealed doc -> tombstone
		t.Fatal(err)
	}
	delete(docs, 0)
	if err := l.Delete(6); err != nil { // mem doc -> physical
		t.Fatal(err)
	}
	delete(docs, 6)
	checkLiveMatches(t, l, docs, liveQueries)

	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	checkLiveMatches(t, l, docs, liveQueries)

	// Compact the two sealed segments; tombstones must be consumed.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Segments != 1 || s.Tombstones != 0 {
		t.Fatalf("after compact: %+v", s)
	}
	checkLiveMatches(t, l, docs, liveQueries)
}

func TestLiveDeleteErrors(t *testing.T) {
	l, err := OpenLive(t.TempDir(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Delete(0); err == nil {
		t.Fatal("delete of unassigned docid succeeded")
	}
	id, err := l.Add("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(id); err == nil {
		t.Fatal("double delete succeeded")
	}
	if err := l.Reinsert(id+10, "beta"); err == nil {
		t.Fatal("reinsert of never-assigned docid succeeded")
	}
	if id2, err := l.Add("gamma"); err != nil {
		t.Fatal(err)
	} else if err := l.Reinsert(id2, "delta"); err == nil {
		t.Fatal("reinsert of visible docid succeeded")
	}
}

// TestLiveDeleteThenReaddAcrossSeal is the regression test for the
// epoch-bound tombstone design: delete a sealed document, re-add the
// same docid, seal again, compact — the old tombstone must not shadow
// the re-added document at any point, and the tombstone must still
// remove the old copy during compaction.
func TestLiveDeleteThenReaddAcrossSeal(t *testing.T) {
	l, err := OpenLive(t.TempDir(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	docs := map[uint32]string{}
	for _, text := range []string{"alpha beta", "beta gamma", "alpha gamma delta"} {
		id, err := l.Add(text)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = text
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}

	// Delete doc 1 out of the sealed segment, then re-add the docid
	// with different text while still in the mutable segment.
	if err := l.Delete(1); err != nil {
		t.Fatal(err)
	}
	delete(docs, 1)
	checkLiveMatches(t, l, docs, liveQueries)
	if err := l.Reinsert(1, "delta delta alpha"); err != nil {
		t.Fatal(err)
	}
	docs[1] = "delta delta alpha"
	checkLiveMatches(t, l, docs, liveQueries)

	// Seal the re-add into its own segment: the tombstone (bound epoch
	// 0) and the re-added copy (epoch 1) now coexist on disk.
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Segments != 2 || s.Tombstones != 1 {
		t.Fatalf("after re-add seal: %+v", s)
	}
	checkLiveMatches(t, l, docs, liveQueries)

	// Compaction must drop the old copy, keep the re-added one, and
	// prune the tombstone.
	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats(); s.Segments != 1 || s.Tombstones != 0 {
		t.Fatalf("after compact: %+v", s)
	}
	checkLiveMatches(t, l, docs, liveQueries)

	// And the state must survive a reopen.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenLive(l.Dir(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkLiveMatches(t, l2, docs, liveQueries)

	// Delete-after-re-add: a fresh tombstone with a higher bound must
	// mask the compacted copy.
	if err := l2.Delete(1); err != nil {
		t.Fatal(err)
	}
	delete(docs, 1)
	checkLiveMatches(t, l2, docs, liveQueries)
}

// TestLiveRestartReplaysWAL closes a live index with unsealed state and
// requires a reopen to reconstruct it exactly from the log.
func TestLiveRestartReplaysWAL(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLive(dir, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	docs := map[uint32]string{}
	for _, text := range []string{"alpha beta", "beta gamma", "alpha gamma delta", "delta beta"} {
		id, err := l.Add(text)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = text
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	// Unsealed tail: one add, one sealed-doc delete, one mem delete.
	id, err := l.Add("omega alpha")
	if err != nil {
		t.Fatal(err)
	}
	docs[id] = "omega alpha"
	victim, err := l.Add("doomed gamma")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(victim); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(2); err != nil {
		t.Fatal(err)
	}
	delete(docs, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := OpenLive(dir, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	checkLiveMatches(t, l2, docs, liveQueries)
	// The re-opened index must keep accepting writes with fresh ids.
	id2, err := l2.Add("fresh beta")
	if err != nil {
		t.Fatal(err)
	}
	if id2 <= victim {
		t.Fatalf("docid regressed after restart: got %d, want > %d", id2, victim)
	}
	docs[id2] = "fresh beta"
	checkLiveMatches(t, l2, docs, liveQueries)
}

// TestLiveAutoSealCompact drives the threshold-triggered background
// seal/compact path and requires query identity throughout.
func TestLiveAutoSealCompact(t *testing.T) {
	l, err := OpenLive(t.TempDir(), LiveOptions{SealDocs: 8, CompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"alpha", "beta", "gamma", "delta", "omega"}
	docs := map[uint32]string{}
	for i := 0; i < 100; i++ {
		text := ""
		for w := 0; w < 1+rng.Intn(5); w++ {
			text += vocab[rng.Intn(len(vocab))] + " "
		}
		id, err := l.Add(text)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = text
		if i%7 == 3 && len(docs) > 2 {
			// Delete a random visible doc.
			var ids []uint32
			for d := range docs {
				ids = append(ids, d)
			}
			sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
			victim := ids[rng.Intn(len(ids))]
			if err := l.Delete(victim); err != nil {
				t.Fatal(err)
			}
			delete(docs, victim)
		}
	}
	// Force the background flushes to quiesce.
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	checkLiveMatches(t, l, docs, liveQueries)
	if s := l.Stats(); s.Seals == 0 {
		t.Fatalf("auto-seal never fired: %+v", s)
	}
}

// TestLiveTopKRejectsUnknownAlgo: Live.TopKWith resolves the algorithm
// name before anything else, exactly as Index.TopKWith does, so an
// unknown name fails even when no sealed segment exists to refuse it.
func TestLiveTopKRejectsUnknownAlgo(t *testing.T) {
	l, err := OpenLive(t.TempDir(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Add("alpha beta"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.TopKWith("bogus", 5, nil, "alpha"); err == nil {
		t.Fatal("TopKWith accepted an unknown algorithm")
	}
	if _, err := l.TopKWith("bogus", 0, nil, "alpha"); err == nil {
		t.Fatal("TopKWith accepted an unknown algorithm at k=0")
	}
}

// TestLiveTopKStatsCoverMutable: the mutable segment ranks through the
// same Block-Max-WAND scorer as a sealed one, so a live index holding
// only unsealed documents reports real work counters, and its ranking
// equals TopK on a from-scratch index of the same documents.
func TestLiveTopKStatsCoverMutable(t *testing.T) {
	l, err := OpenLive(t.TempDir(), LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	docs := map[uint32]string{}
	for _, text := range skewedDocs(600, 5) {
		id, err := l.Add(text)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = text
	}
	if s := l.Stats(); s.Segments != 0 || s.MemDocs != len(docs) {
		t.Fatalf("want every document in the mutable segment: %+v", s)
	}
	n := buildNaive(t, docs)
	for _, q := range [][]string{{"rare"}, {"rare", "common0"}, {"mid", "common1", "common1"}, {"absent", "mid"}} {
		for _, k := range []int{1, 10, 1000} {
			var st ops.TopKStats
			got, err := l.TopKWith("", k, &st, q...)
			if err != nil {
				t.Fatal(err)
			}
			if want := n.topk(t, k, q...); !reflect.DeepEqual(got, want) {
				t.Fatalf("TOPK %v k=%d: live %v, from scratch %v", q, k, got, want)
			}
			if st.Mode != "bmw" || st.Lists == 0 || st.DocsScored == 0 {
				t.Fatalf("TOPK %v k=%d: stats %+v, want bmw work over the mutable segment", q, k, st)
			}
		}
	}
}

func TestIDRangesRoundtrip(t *testing.T) {
	ids := []uint32{0, 1, 2, 5, 6, 9, 100, 101, 102, 103}
	r := rangesFromIDs(ids)
	if r.total() != len(ids) {
		t.Fatalf("total %d, want %d", r.total(), len(ids))
	}
	for i, g := range ids {
		if got := r.toGlobal(uint32(i)); got != g {
			t.Fatalf("toGlobal(%d) = %d, want %d", i, got, g)
		}
		if l, ok := r.toLocal(g); !ok || l != uint32(i) {
			t.Fatalf("toLocal(%d) = %d,%v, want %d", g, l, ok, i)
		}
	}
	for _, absent := range []uint32{3, 4, 7, 8, 10, 99, 104, 1 << 30} {
		if r.contains(absent) {
			t.Fatalf("contains(%d) = true", absent)
		}
	}
	if !equalU32s(r.allGlobals(), ids) {
		t.Fatal("allGlobals mismatch")
	}
	locals := []uint32{0, 3, 4, 9}
	if got := r.globals(locals); !equalU32s(got, []uint32{0, 5, 6, 103}) {
		t.Fatalf("globals(%v) = %v", locals, got)
	}
	r2 := rangesFromMeta(r.meta())
	if !equalU32s(r2.allGlobals(), ids) {
		t.Fatal("meta roundtrip mismatch")
	}
	if fmt.Sprint(rangesFromIDs(nil).meta()) != "[]" {
		t.Fatal("empty ranges meta not empty")
	}
}

func TestManifestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	m := &manifest{
		Version: 1, NextDoc: 42, WALFloor: 3, WALSeq: 4, SegSeq: 7, Epoch: 5,
		Segments: []segmentMeta{{File: "seg-000001.bvix", Epoch: 2, DocMap: [][2]uint32{{0, 10}, {12, 5}}}},
	}
	bounds := map[uint32]int{3: 1, 11: 4, 200: 0}
	if err := m.encodeTombs(bounds); err != nil {
		t.Fatal(err)
	}
	if err := writeManifest(faultio.OS, dir, m); err != nil {
		t.Fatal(err)
	}
	got, ok, err := readManifest(faultio.OS, dir)
	if err != nil || !ok {
		t.Fatalf("readManifest: %v %v", ok, err)
	}
	if got.NextDoc != 42 || got.WALFloor != 3 || got.SegSeq != 7 || got.Epoch != 5 {
		t.Fatalf("manifest fields: %+v", got)
	}
	gb, err := got.decodeTombs()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gb, bounds) {
		t.Fatalf("tombs roundtrip: %v, want %v", gb, bounds)
	}
	// Corrupt one byte inside the body: the read must fail loudly.
	path := filepath.Join(dir, manifestName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readManifest(faultio.OS, dir); err == nil {
		t.Fatal("corrupted manifest read succeeded")
	}
}
