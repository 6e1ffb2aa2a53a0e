package index

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/codecs"
	"repro/internal/core"
)

// compactFixture seals a live index into segments covering every case
// the streamed merge must get right: tombstones on sealed documents, a
// delete-then-re-add across a seal, a segment whose every document is
// deleted, and a codec rotation — the segments before the reopen are
// sealed with first, the ones after (and the merge) with then. It
// returns the open index and the surviving documents.
func compactFixture(t *testing.T, dir string, first, then core.Codec) (*Live, map[uint32]string) {
	t.Helper()
	l, err := OpenLive(dir, LiveOptions{Codec: first})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	vocab := []string{"alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma"}
	docs := map[uint32]string{}
	add := func(l *Live, n int) []uint32 {
		var ids []uint32
		for i := 0; i < n; i++ {
			text := ""
			for w := 0; w < 1+rng.Intn(6); w++ {
				text += vocab[rng.Intn(len(vocab))] + " "
			}
			id, err := l.Add(text)
			if err != nil {
				t.Fatal(err)
			}
			docs[id] = text
			ids = append(ids, id)
		}
		return ids
	}
	seal := func(l *Live) {
		if err := l.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	del := func(l *Live, id uint32) {
		if err := l.Delete(id); err != nil {
			t.Fatal(err)
		}
		delete(docs, id)
	}

	seg1 := add(l, 40)
	seal(l)
	for _, id := range seg1[:len(seg1)/2] {
		if id%3 == 0 {
			del(l, id) // tombstones on a sealed segment
		}
	}
	// Delete a sealed document, re-add its docid, seal the re-add.
	del(l, seg1[1])
	if err := l.Reinsert(seg1[1], "delta delta reborn"); err != nil {
		t.Fatal(err)
	}
	docs[seg1[1]] = "delta delta reborn"
	add(l, 15)
	seal(l)
	// A segment whose every document is deleted.
	doomed := add(l, 12)
	seal(l)
	for _, id := range doomed {
		del(l, id)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l, err = OpenLive(dir, LiveOptions{Codec: then})
	if err != nil {
		t.Fatal(err)
	}
	add(l, 25)
	seal(l)
	return l, docs
}

// TestCompactStreamedMatchesExport requires the streamed compaction
// output to be byte-identical to WriteTo of Export's in-memory merge
// of the same segments — one merge, one encoder, two sinks — and the
// compacted index to answer like a from-scratch rebuild.
func TestCompactStreamedMatchesExport(t *testing.T) {
	vb, err := codecs.ByName("VB")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		first, then core.Codec
	}{
		{"adaptive-to-VB", nil, vb},
		{"VB-to-adaptive", vb, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, docs := compactFixture(t, t.TempDir(), tc.first, tc.then)
			defer l.Close()
			if s := l.Stats(); s.Segments != 4 || s.Tombstones == 0 {
				t.Fatalf("fixture: %+v", s)
			}
			exported, err := l.Export()
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if _, err := exported.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if err := l.Compact(); err != nil {
				t.Fatal(err)
			}
			if s := l.Stats(); s.Segments != 1 || s.Tombstones != 0 {
				t.Fatalf("after compact: %+v", s)
			}
			got, err := os.ReadFile(filepath.Join(l.Dir(), l.sealed[0].file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("streamed compaction wrote %d bytes that differ from WriteTo of the export (%d bytes)", len(got), want.Len())
			}
			// Every term of the fixture, the last in name order included.
			queries := append([][]string{{"omega"}, {"kappa"}, {"sigma"}, {"reborn"}}, liveQueries...)
			checkLiveMatches(t, l, docs, queries)
		})
	}
}

// compactBench is a live directory of 4 sealed segments with
// tombstones, built once and copied before every timed compaction.
var compactBench struct {
	files map[string][]byte
}

func compactBenchSetup(b *testing.B) {
	if compactBench.files != nil {
		return
	}
	dir := b.TempDir()
	l, err := OpenLive(dir, LiveOptions{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	var text []byte
	const segs, perSeg = 4, 4000
	for s := 0; s < segs; s++ {
		for d := 0; d < perSeg; d++ {
			text = text[:0]
			for w := 8 + rng.Intn(16); w > 0; w-- {
				text = fmt.Appendf(text, "w%04d ", zipf.Uint64())
			}
			if _, err := l.Add(string(text)); err != nil {
				b.Fatal(err)
			}
		}
		if err := l.Seal(); err != nil {
			b.Fatal(err)
		}
	}
	for doc := uint32(0); doc < segs*perSeg; doc += 10 {
		if err := l.Delete(doc); err != nil {
			b.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	compactBench.files = map[string][]byte{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			b.Fatal(err)
		}
		compactBench.files[e.Name()] = data
	}
}

// BenchmarkCompact merges 4 seeded sealed segments (16k documents, a
// tombstone on every tenth) into one; run with -benchmem, B/op is what
// a compaction allocates.
func BenchmarkCompact(b *testing.B) {
	b.StopTimer()
	compactBenchSetup(b)
	b.ReportAllocs()
	dir := filepath.Join(b.TempDir(), "live")
	for i := 0; i < b.N; i++ {
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		for name, data := range compactBench.files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				b.Fatal(err)
			}
		}
		l, err := OpenLive(dir, LiveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		err = l.Compact()
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if s := l.Stats(); s.Segments != 1 {
			b.Fatalf("compacted to %d segments", s.Segments)
		}
		l.Close()
	}
}
