package index

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"repro/internal/codecs"
)

// The open/build benchmarks run against a deterministic corpus with a
// 64Ki-term vocabulary: benchDocs documents of benchTermsPerDoc terms
// each, term IDs assigned arithmetically so every vocabulary slot is
// hit the same number of times and two runs produce byte-identical
// indexes. The point of the corpus is dictionary width, not posting
// depth — time-to-first-query on an eager open is dominated by
// decoding all 64Ki lists, which is exactly what the lazy mmap path
// skips.
const (
	benchVocab       = 1 << 16
	benchDocs        = 1 << 13
	benchTermsPerDoc = 32
)

var benchCorpus struct {
	once  sync.Once
	docs  []string
	bvix3 []byte // serialized mmap format
	probe [2]string
}

func benchSetup(tb testing.TB) {
	benchCorpus.once.Do(func() {
		docs := make([]string, benchDocs)
		var sb bytes.Buffer
		for i := 0; i < benchDocs; i++ {
			sb.Reset()
			for j := 0; j < benchTermsPerDoc; j++ {
				if j > 0 {
					sb.WriteByte(' ')
				}
				// Multiplying by an odd constant permutes slot order mod
				// 2^16, spreading each document across the vocabulary while
				// covering every term exactly docs*terms/vocab times.
				id := uint16((i*benchTermsPerDoc + j) * 40503)
				fmt.Fprintf(&sb, "t%05d", id)
			}
			docs[i] = sb.String()
		}
		benchCorpus.docs = docs
		codec, err := codecs.ByName("VB")
		if err != nil {
			panic(err)
		}
		b := NewBuilder(codec)
		for _, d := range docs {
			b.AddDocument(d)
		}
		idx, err := b.Build()
		if err != nil {
			panic(err)
		}
		var v3 bytes.Buffer
		if _, err := idx.WriteTo(&v3); err != nil {
			panic(err)
		}
		benchCorpus.bvix3 = v3.Bytes()
		// Two terms guaranteed present, for the first-query probe.
		benchCorpus.probe = [2]string{"t00000", "t00001"}
	})
	if benchCorpus.docs == nil {
		tb.Fatal("bench corpus failed to build")
	}
}

func benchBuild(b *testing.B, shards int) {
	benchSetup(b)
	codec, err := codecs.ByName("VB")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bl := NewBuilder(codec)
		bl.SetShards(shards)
		for _, d := range benchCorpus.docs {
			bl.AddDocument(d)
		}
		idx, err := bl.Build()
		if err != nil {
			b.Fatal(err)
		}
		if idx.Terms() != benchVocab {
			b.Fatalf("terms = %d, want %d", idx.Terms(), benchVocab)
		}
	}
}

// BenchmarkIndexBuildSerial pins the single-shard baseline the parallel
// build is measured against.
func BenchmarkIndexBuildSerial(b *testing.B) { benchBuild(b, 1) }

// BenchmarkIndexBuildParallel shards tokenization and posting
// compression across GOMAXPROCS workers; output is byte-identical to
// the serial build (TestBVIX3ByteIdenticalAcrossShards).
func BenchmarkIndexBuildParallel(b *testing.B) {
	if runtime.GOMAXPROCS(0) == 1 {
		b.Log("GOMAXPROCS=1: parallel build degenerates to the serial path on this machine")
	}
	benchBuild(b, runtime.GOMAXPROCS(0))
}

func benchWriteFile(b *testing.B, data []byte, name string) string {
	b.Helper()
	path := filepath.Join(b.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		b.Fatal(err)
	}
	return path
}

func benchFirstQuery(b *testing.B, idx *Index) {
	b.Helper()
	docs, err := idx.Conjunctive(benchCorpus.probe[0], benchCorpus.probe[1])
	if err != nil {
		b.Fatal(err)
	}
	_ = docs
}

// BenchmarkIndexOpenMmapBVIX3 measures time-to-first-query for the
// mmap-backed format: open maps the file and validates section
// checksums, then the query materializes only the two postings it
// touches.
func BenchmarkIndexOpenMmapBVIX3(b *testing.B) {
	benchSetup(b)
	path := benchWriteFile(b, benchCorpus.bvix3, "bench.bvix3")
	b.ReportAllocs()
	b.SetBytes(int64(len(benchCorpus.bvix3)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx, err := OpenFile(path)
		if err != nil {
			b.Fatal(err)
		}
		benchFirstQuery(b, idx)
		if err := idx.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
