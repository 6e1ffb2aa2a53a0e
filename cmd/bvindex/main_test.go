package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
	"repro/internal/shard"
)

func writeDocs(t *testing.T, docs []string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "docs.txt")
	if err := os.WriteFile(p, []byte(strings.Join(docs, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildAndQuery(t *testing.T) {
	docsFile := writeDocs(t, []string{
		"compressed bitmap indexes",
		"inverted lists for search",
		"bitmap and inverted compression compression",
	})
	idxFile := filepath.Join(t.TempDir(), "out.idx")
	if err := runBuild(docsFile, idxFile, "Roaring", "bvix3", 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runQuery(idxFile, "bitmap compression", "and", 5, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 docs: [2]") {
		t.Errorf("AND output = %q", buf.String())
	}
	buf.Reset()
	if err := runQuery(idxFile, "bitmap inverted", "or", 5, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "3 docs") {
		t.Errorf("OR output = %q", buf.String())
	}
	buf.Reset()
	if err := runQuery(idxFile, "compression", "topk", 1, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "doc 2 (score 2)") {
		t.Errorf("TOPK output = %q", buf.String())
	}
}

// TestBuildImpactsAndRankedQuery builds with the impacts format and
// checks the CLI's ranked query runs Block-Max-WAND and reports its
// pruning counters.
func TestBuildImpactsAndRankedQuery(t *testing.T) {
	docsFile := writeDocs(t, []string{
		"compressed bitmap indexes",
		"inverted lists for search",
		"bitmap and inverted compression compression",
	})
	idxFile := filepath.Join(t.TempDir(), "out.idx")
	if err := runBuild(docsFile, idxFile, "auto", "bvix3+impacts", 0); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runQuery(idxFile, "compression bitmap", "topk", 2, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "[bmw]") || !strings.Contains(out, "doc 2 (score 3)") {
		t.Errorf("output = %q", out)
	}
	if !strings.Contains(out, "blocks decoded") {
		t.Errorf("no pruning counters in %q", out)
	}
}

func TestBuildErrors(t *testing.T) {
	docsFile := writeDocs(t, []string{"a doc"})
	if err := runBuild(docsFile, "", "Roaring", "bvix3", 0); err == nil {
		t.Error("missing -out accepted")
	}
	out := filepath.Join(t.TempDir(), "x.idx")
	if err := runBuild(docsFile, out, "NoSuchCodec", "bvix3", 0); err == nil {
		t.Error("unknown codec accepted")
	}
	if err := runBuild(filepath.Join(t.TempDir(), "missing.txt"), out, "Roaring", "bvix3", 0); err == nil {
		t.Error("missing input accepted")
	}
	if err := runBuild(docsFile, out, "Roaring", "bvix9", 0); err == nil {
		t.Error("unknown format accepted")
	}
	if err := runBuild(docsFile, out, "Roaring", "bvix2", 0); err == nil {
		t.Error("retired format bvix2 accepted")
	}
}

func TestQueryErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := runQuery("", "x", "and", 5, &buf); err == nil {
		t.Error("missing -index accepted")
	}
	docsFile := writeDocs(t, []string{"a doc"})
	idxFile := filepath.Join(t.TempDir(), "q.idx")
	if err := runBuild(docsFile, idxFile, "VB", "bvix3", 2); err != nil {
		t.Fatal(err)
	}
	if err := runQuery(idxFile, "doc", "nonsense", 5, &buf); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := runQuery(docsFile, "doc", "and", 5, &buf); err == nil {
		t.Error("non-index file accepted")
	}
}

// TestPartitionBuild: -partition N writes one shard file per shard
// plus a verifiable manifest, and the shards reopen as servable
// indexes that jointly cover the corpus.
func TestPartitionBuild(t *testing.T) {
	docs := []string{
		"compressed bitmap indexes",
		"inverted lists for search",
		"bitmap and inverted compression compression",
		"roaring bitmap compression",
		"search over compressed lists",
		"bitmap search",
		"inverted index compression",
	}
	docsFile := writeDocs(t, docs)
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "shards.json")
	if err := runPartition(docsFile, mapPath, "auto", "bvix3+impacts", 0, 3); err != nil {
		t.Fatal(err)
	}
	m, err := shard.LoadMap(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 || m.Docs != len(docs) {
		t.Fatalf("manifest shape: %+v", m)
	}
	if err := m.VerifyFiles(dir); err != nil {
		t.Fatalf("fresh shard files fail verification: %v", err)
	}
	total := 0
	for s, e := range m.Entries {
		idx, err := index.OpenFile(filepath.Join(dir, e.File))
		if err != nil {
			t.Fatalf("shard %d: %v", s, err)
		}
		total += idx.Docs()
		// Shard s holds globals s, s+3, ... — its local doc 0 is the
		// corpus document s.
		wantFirst := index.Tokenize(docs[s])
		got, err := idx.Conjunctive(wantFirst...)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, d := range got {
			if d == 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("shard %d local doc 0 does not match corpus doc %d", s, s)
		}
		idx.Close()
	}
	if total != len(docs) {
		t.Fatalf("shards cover %d docs, corpus has %d", total, len(docs))
	}
}

// TestPartitionRefusals: empty-shard partitions and missing outputs
// are one-line errors, and no partial layout is left behind on the
// empty-shard refusal.
func TestPartitionRefusals(t *testing.T) {
	docsFile := writeDocs(t, []string{"one doc", "two doc"})
	dir := t.TempDir()
	mapPath := filepath.Join(dir, "shards.json")
	err := runPartition(docsFile, mapPath, "Roaring", "bvix3", 0, 5)
	if err == nil {
		t.Fatal("5 shards over 2 docs accepted")
	}
	if !strings.Contains(err.Error(), "empty shards") {
		t.Fatalf("error does not name the cause: %v", err)
	}
	if _, serr := os.Stat(mapPath); !os.IsNotExist(serr) {
		t.Fatal("refused partition left a manifest behind")
	}
	if err := runPartition(docsFile, "", "Roaring", "bvix3", 0, 2); err == nil {
		t.Fatal("missing -out accepted")
	}
	empty := writeDocs(t, []string{"", "  "})
	if err := runPartition(empty, mapPath, "Roaring", "bvix3", 0, 2); err == nil {
		t.Fatal("empty corpus accepted")
	}
}

// TestBuildEmptyCorpus: a corpus with no non-blank documents must be
// refused, not silently written as an empty index with exit 0.
func TestBuildEmptyCorpus(t *testing.T) {
	docsFile := writeDocs(t, []string{"", "   ", "\t"})
	out := filepath.Join(t.TempDir(), "empty.idx")
	err := runBuild(docsFile, out, "Roaring", "bvix3", 0)
	if err == nil {
		t.Fatal("empty corpus accepted")
	}
	if !strings.Contains(err.Error(), "empty corpus") {
		t.Fatalf("error does not name the cause: %v", err)
	}
	if _, serr := os.Stat(out); !os.IsNotExist(serr) {
		t.Fatalf("empty-corpus build left a file at %s", out)
	}
}

// TestBuildUnwritableOutput: an unwritable output path is a clean
// error, and a previously published index at that path survives the
// failed attempt untouched (atomic publish).
func TestBuildUnwritableOutput(t *testing.T) {
	docsFile := writeDocs(t, []string{"a doc"})
	out := filepath.Join(t.TempDir(), "no", "such", "dir", "x.idx")
	if err := runBuild(docsFile, out, "Roaring", "bvix3", 0); err == nil {
		t.Fatal("unwritable output path accepted")
	}

	dir := t.TempDir()
	published := filepath.Join(dir, "keep.idx")
	if err := runBuild(docsFile, published, "Roaring", "bvix3", 0); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(published)
	if err != nil {
		t.Fatal(err)
	}
	// Routing the output path through the published file itself yields
	// ENOTDIR for any uid (a chmod-based probe is useless under root).
	moreDocs := writeDocs(t, []string{"a doc", "another doc"})
	if err := runBuild(moreDocs, filepath.Join(published, "sub.idx"), "Roaring", "bvix3", 0); err == nil {
		t.Fatal("write through a file path component accepted")
	}
	after, err := os.ReadFile(published)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed build disturbed the previously published index")
	}
}

// TestFromWAL drives the offline recovery path: a live directory with
// sealed segments, a WAL tail, and tombstones compacts into a single
// queryable static index; an empty or missing directory is refused
// with a one-line cause.
func TestFromWAL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "live")
	l, err := index.OpenLive(dir, index.LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, text := range []string{
		"compressed bitmap indexes",
		"inverted lists for search",
		"bitmap and inverted compression compression",
	} {
		if _, err := l.Add(text); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	// A WAL-tail add and a tombstone that recovery must honor.
	if _, err := l.Add("trailing bitmap document"); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	out := filepath.Join(t.TempDir(), "recovered.idx")
	if err := runFromWAL(dir, out, "auto", "bvix3"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runQuery(out, "bitmap", "and", 5, &buf); err != nil {
		t.Fatal(err)
	}
	// Survivors renumber densely: docs 0, 2, 3 become 0, 1, 2.
	if !strings.Contains(buf.String(), "3 docs: [0 1 2]") {
		t.Errorf("recovered AND output = %q", buf.String())
	}
	buf.Reset()
	if err := runQuery(out, "inverted", "and", 5, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "1 docs: [1]") {
		t.Errorf("tombstoned doc resurfaced: %q", buf.String())
	}

	if err := runFromWAL(dir, "", "auto", "bvix3"); err == nil || !strings.Contains(err.Error(), "-out") {
		t.Errorf("missing -out: err = %v", err)
	}
	empty := filepath.Join(t.TempDir(), "fresh")
	if err := runFromWAL(empty, out, "auto", "bvix3"); err == nil {
		t.Error("empty live dir exported")
	}
	if err := runFromWAL(dir, out, "NoSuchCodec", "bvix3"); err == nil {
		t.Error("unknown codec accepted")
	}
}
