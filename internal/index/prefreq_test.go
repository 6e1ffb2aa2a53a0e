package index

import (
	"bufio"
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// The prefreq fixtures store frequencies raw (testdata/prefreq/README.md).
var (
	preFreqDir       = filepath.Join("testdata", "prefreq")
	preFreqIndexFile = filepath.Join(preFreqDir, "plain.bvix")
)

// preFreqDocs returns the fixture documents, one per line, and their
// vocabulary in sorted order.
func preFreqDocs(t *testing.T) (lines, vocab []string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(preFreqDir, "docs.txt"))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		lines = append(lines, line)
		for _, w := range Tokenize(line) {
			if !seen[w] {
				seen[w] = true
				vocab = append(vocab, w)
			}
		}
	}
	sort.Strings(vocab)
	return lines, vocab
}

// TestPreFreqIndexFile: an impact-less file with raw frequencies opens
// through OpenFile and Read and answers every term, AND, OR and top-10
// exactly as an index rebuilt from the same documents today; the
// rebuild, with γ frequency lists, is the smaller file, and rewriting
// the old file gives the rebuild byte for byte.
func TestPreFreqIndexFile(t *testing.T) {
	lines, terms := preFreqDocs(t)
	b := NewAutoBuilder()
	for _, line := range lines {
		b.AddDocument(line)
	}
	fresh, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var rebuilt bytes.Buffer
	if _, err := fresh.WriteTo(&rebuilt); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(preFreqIndexFile)
	if err != nil {
		t.Fatal(err)
	}
	if file[len(bvix3Magic)] != bvix3VersionRaw || rebuilt.Bytes()[len(bvix3Magic)] != bvix3Version {
		t.Fatalf("versions %d and %d, want %d and %d", file[len(bvix3Magic)], rebuilt.Bytes()[len(bvix3Magic)], bvix3VersionRaw, bvix3Version)
	}
	if rebuilt.Len() >= len(file) {
		t.Fatalf("rebuild is %d bytes, the old file %d: want the rebuild smaller", rebuilt.Len(), len(file))
	}

	mapped, err := OpenFile(preFreqIndexFile)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer mapped.Close()
	read, err := Read(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for name, old := range map[string]*Index{"OpenFile": mapped, "Read": read} {
		if old.Docs() != fresh.Docs() || old.Terms() != fresh.Terms() {
			t.Fatalf("%s: %d docs, %d terms; rebuilt %d, %d", name, old.Docs(), old.Terms(), fresh.Docs(), fresh.Terms())
		}
		same := func(q string, got, want any, err1, err2 error) {
			t.Helper()
			if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: %v (%v), rebuilt %v (%v)", name, q, got, err1, want, err2)
			}
		}
		for i, a := range terms {
			c := terms[(i*7+3)%len(terms)]
			d := terms[(i+1)%len(terms)]
			got, err1 := old.Conjunctive(a)
			want, err2 := fresh.Conjunctive(a)
			same(a, got, want, err1, err2)
			got, err1 = old.Conjunctive(a, c)
			want, err2 = fresh.Conjunctive(a, c)
			same("AND "+a+" "+c, got, want, err1, err2)
			got, err1 = old.Disjunctive(a, c, d)
			want, err2 = fresh.Disjunctive(a, c, d)
			same("OR "+a+" "+c+" "+d, got, want, err1, err2)
			top, err1 := old.TopK(10, a, c, d)
			wantTop, err2 := fresh.TopK(10, a, c, d)
			same("top-10 "+a+" "+c+" "+d, top, wantTop, err1, err2)
		}
		var rewritten bytes.Buffer
		if _, err := old.WriteTo(&rewritten); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten.Bytes(), rebuilt.Bytes()) {
			t.Fatalf("%s: rewriting the old file gives %d bytes unlike the rebuild's %d", name, rewritten.Len(), rebuilt.Len())
		}
	}
}

// TestPreFreqLiveDir: a live directory whose sealed segment stores
// frequencies raw opens and answers as its model; a new-format segment
// sealed beside the old one, and the compaction of the two, answer as
// the model too, and so does the directory reopened.
func TestPreFreqLiveDir(t *testing.T) {
	lines, terms := preFreqDocs(t)
	dir := t.TempDir()
	for _, name := range []string{"MANIFEST", "seg-000000.bvix", "wal-000001.log"} {
		b, err := os.ReadFile(filepath.Join(preFreqDir, "live", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	model := map[uint32]string{}
	for id := uint32(0); id < 160; id++ {
		model[id] = lines[id]
	}
	for _, id := range []uint32{11, 42, 97, 133} {
		delete(model, id)
	}

	l, err := OpenLive(dir, LiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { l.Close() }()
	checkPreFreqLive(t, "opened", l, model, terms)

	for id := uint32(160); id < 200; id++ {
		got, err := l.Add(lines[id])
		if err != nil || got != id {
			t.Fatalf("Add %d: got %d, %v", id, got, err)
		}
		model[id] = lines[id]
	}
	for _, id := range []uint32{7, 150, 181} {
		if err := l.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(model, id)
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if got := segmentVersions(t, dir); !reflect.DeepEqual(got, []byte{bvix3VersionRaw, bvix3Version}) {
		t.Fatalf("segment versions %v after the seal, want [%d %d]", got, bvix3VersionRaw, bvix3Version)
	}
	checkPreFreqLive(t, "sealed", l, model, terms)

	if err := l.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := segmentVersions(t, dir); !reflect.DeepEqual(got, []byte{bvix3Version}) {
		t.Fatalf("segment versions %v after the compaction, want [%d]", got, bvix3Version)
	}
	checkPreFreqLive(t, "compacted", l, model, terms)

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if l, err = OpenLive(dir, LiveOptions{}); err != nil {
		t.Fatal(err)
	}
	checkPreFreqLive(t, "reopened", l, model, terms)
}

// segmentVersions reads the version byte of every sealed segment in
// dir, in file name order.
func segmentVersions(t *testing.T, dir string) []byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.bvix"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var out []byte
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b[len(bvix3Magic)])
	}
	return out
}

// checkPreFreqLive compares every term, an AND, an OR and a top-10 per
// term against a rebuild of the model's documents.
func checkPreFreqLive(t *testing.T, stage string, l *Live, model map[uint32]string, terms []string) {
	t.Helper()
	n := buildNaive(t, model)
	if got := l.Docs(); got != len(model) {
		t.Fatalf("%s: %d visible docs, want %d", stage, got, len(model))
	}
	for i, a := range terms {
		c := terms[(i*7+3)%len(terms)]
		d := terms[(i+1)%len(terms)]
		for _, q := range [][]string{{a}, {a, c}} {
			got, err := l.Conjunctive(q...)
			if err != nil {
				t.Fatal(err)
			}
			if want := n.conjunctive(t, q...); !equalU32s(got, want) {
				t.Fatalf("%s: AND %v: live %v, model %v", stage, q, got, want)
			}
		}
		q := []string{a, c, d}
		got, err := l.Disjunctive(q...)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.disjunctive(t, q...); !equalU32s(got, want) {
			t.Fatalf("%s: OR %v: live %v, model %v", stage, q, got, want)
		}
		top, err := l.TopK(10, q...)
		if err != nil {
			t.Fatal(err)
		}
		if want := n.topk(t, 10, q...); !(len(top) == 0 && len(want) == 0) && !reflect.DeepEqual(top, want) {
			t.Fatalf("%s: top-10 %v: live %v, model %v", stage, q, top, want)
		}
	}
}
