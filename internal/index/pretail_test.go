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

// preTailIndexFile is a bvix3+impacts file written by `bvindex -codec
// auto` before the SIMD codecs VB-coded a short last block; its
// documents are beside it (testdata/pretail/README.md).
var preTailIndexFile = filepath.Join("testdata", "pretail", "auto.bvix")

// TestPreTailIndexFile: the file opens through OpenFile and Read, and
// answers every term, AND, OR and top-k exactly as an index rebuilt
// from the same documents today.
func TestPreTailIndexFile(t *testing.T) {
	docs, err := os.ReadFile(filepath.Join("testdata", "pretail", "docs.txt"))
	if err != nil {
		t.Fatal(err)
	}
	b := NewAutoBuilder()
	vocab := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(docs))
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			b.AddDocument(line)
			for _, w := range Tokenize(line) {
				vocab[w] = true
			}
		}
	}
	fresh, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var terms []string
	for w := range vocab {
		terms = append(terms, w)
	}
	// Sorted, so the pairings below are the same on every run.
	sort.Strings(terms)

	mapped, err := OpenFile(preTailIndexFile)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	defer mapped.Close()
	file, err := os.ReadFile(preTailIndexFile)
	if err != nil {
		t.Fatal(err)
	}
	read, err := Read(bytes.NewReader(file))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for name, old := range map[string]*Index{"OpenFile": mapped, "Read": read} {
		if old.Docs() != fresh.Docs() || old.Terms() != fresh.Terms() {
			t.Fatalf("%s: %d docs, %d terms; rebuilt %d, %d", name, old.Docs(), old.Terms(), fresh.Docs(), fresh.Terms())
		}
		// The old file packs its short blocks; the rebuild VB-codes them.
		if old.SizeBytes() <= fresh.SizeBytes() {
			t.Fatalf("%s: %d posting bytes, rebuilt %d: want the rebuild smaller", name, old.SizeBytes(), fresh.SizeBytes())
		}
		if !reflect.DeepEqual(old.CodecMix(), fresh.CodecMix()) {
			t.Fatalf("%s: codec mix %v, rebuilt %v", name, old.CodecMix(), fresh.CodecMix())
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
			same("top-k "+a+" "+c+" "+d, top, wantTop, err1, err2)
		}
	}
}
