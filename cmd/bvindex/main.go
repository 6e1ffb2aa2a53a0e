// Command bvindex builds a persistent inverted index over a text file
// (one document per line) and answers boolean / top-k queries against
// it — a minimal end-to-end tour of the §A.1 application on top of any
// codec in the module.
//
// Usage:
//
//	bvindex -build -in docs.txt -out docs.idx -codec Roaring
//	bvindex -build -in docs.txt -out docs.idx -codec auto        # adaptive per-list selection
//	bvindex -build -in docs.txt -out docs.idx -shards 8
//	bvindex -build -in docs.txt -out docs.idx -format bvix3+impacts  # ranked annotations
//	bvindex -build -in docs.txt -partition 4 -out shards/shards.json # doc-partitioned shards
//	bvindex -index docs.idx -query "compressed lists"            # AND
//	bvindex -index docs.idx -query "bitmap inverted" -mode or
//	bvindex -index docs.idx -query "compression" -mode topk -k 3
//	bvindex -from-wal data/live -out recovered.idx              # recover a live dir
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/ops"
	"repro/internal/shard"
)

func main() {
	var (
		build     = flag.Bool("build", false, "build an index instead of querying")
		fromWAL   = flag.String("from-wal", "", "recover a live-ingestion directory (WAL + segments) and compact it into a single index at -out")
		inFile    = flag.String("in", "", "input documents, one per line (default stdin)")
		outFile   = flag.String("out", "", "output index file (build mode)")
		indexFile = flag.String("index", "", "index file to query")
		codecName = flag.String("codec", "Roaring", "codec for posting lists, or \"auto\" for adaptive per-list selection (build mode)")
		format    = flag.String("format", "bvix3", "output format: bvix3 | bvix3+impacts (build mode)")
		shards    = flag.Int("shards", 0, "tokenizer shards for parallel build (0 = GOMAXPROCS)")
		partition = flag.Int("partition", 0, "split the corpus across N doc-partitioned serving shards, writing shard-XXXX.bvix files plus a checksummed shard-map manifest at -out (build mode; 0 = single index)")
		query     = flag.String("query", "", "space-separated query terms")
		mode      = flag.String("mode", "and", "query mode: and | or | topk")
		k         = flag.Int("k", 5, "result count for -mode topk")
	)
	flag.Parse()
	if err := validateFlags(flag.CommandLine); err != nil {
		fatal("%v", err)
	}

	switch {
	case *fromWAL != "":
		if err := runFromWAL(*fromWAL, *outFile, *codecName, *format); err != nil {
			fatal("%v", err)
		}
	case *build && *partition > 0:
		if err := runPartition(*inFile, *outFile, *codecName, *format, *shards, *partition); err != nil {
			fatal("%v", err)
		}
	case *build:
		if err := runBuild(*inFile, *outFile, *codecName, *format, *shards); err != nil {
			fatal("%v", err)
		}
	case *query != "":
		if err := runQuery(*indexFile, *query, *mode, *k, os.Stdout); err != nil {
			fatal("%v", err)
		}
	default:
		fatal("nothing to do: pass -build or -query (see -help)")
	}
}

// validateFlags rejects nonsensical configurations right after parse,
// before any input is read or index touched, with a one-line cause
// (the bvserve convention).
func validateFlags(fs *flag.FlagSet) error {
	get := func(name string) any { return fs.Lookup(name).Value.(flag.Getter).Get() }
	if name := get("codec").(string); name != "auto" {
		if _, err := codecs.ByName(name); err != nil {
			return fmt.Errorf("-codec=%q: not a codec name (try one of %v, or \"auto\")", name, codecs.Names())
		}
	}
	if f := get("format").(string); f != "bvix3" && f != "bvix3+impacts" {
		return fmt.Errorf("-format=%q: want bvix3 or bvix3+impacts", f)
	}
	if m := get("mode").(string); m != "and" && m != "or" && m != "topk" {
		return fmt.Errorf("-mode=%q: want and, or, or topk", m)
	}
	if v := get("k").(int); v < 1 {
		return fmt.Errorf("-k=%d: result count must be at least 1", v)
	}
	if v := get("shards").(int); v < 0 || v > 4096 {
		return fmt.Errorf("-shards=%d: want 0 (one per CPU) through 4096", v)
	}
	if v := get("partition").(int); v < 0 || v > shard.MaxShards {
		return fmt.Errorf("-partition=%d: want 0 (single index) through %d", v, shard.MaxShards)
	}
	if v := get("partition").(int); v > 0 && !get("build").(bool) {
		return fmt.Errorf("-partition=%d: only meaningful with -build", v)
	}
	if dir := get("from-wal").(string); dir != "" {
		if get("build").(bool) {
			return fmt.Errorf("-from-wal: mutually exclusive with -build")
		}
		if get("query").(string) != "" {
			return fmt.Errorf("-from-wal: mutually exclusive with -query")
		}
	}
	return nil
}

// runFromWAL opens a live-ingestion directory — replaying the WAL
// tail, applying tombstones — and compacts the surviving documents
// into one standalone index at outFile. This is the offline recovery
// path: point it at the data directory of a crashed or retired
// bvserve -live process and get a static, servable index back.
func runFromWAL(dir, outFile, codecName, format string) error {
	if outFile == "" {
		return fmt.Errorf("-from-wal needs -out (the recovered index path)")
	}
	var codec core.Codec
	if codecName != "auto" {
		c, err := codecs.ByName(codecName)
		if err != nil {
			return err
		}
		codec = c
	}
	l, err := index.OpenLive(dir, index.LiveOptions{Codec: codec})
	if err != nil {
		return fmt.Errorf("opening live directory %s: %w", dir, err)
	}
	defer l.Close()
	st := l.Stats()
	idx, err := l.Export()
	if err != nil {
		return err
	}
	if err := idx.WriteFile(outFile, index.Format(format)); err != nil {
		return err
	}
	fmt.Printf("recovered %d documents (%d sealed segments, %d tombstones applied, WAL seq %d) -> %s\n",
		idx.Docs(), st.Segments, st.Tombstones, st.WALSeq, outFile)
	return nil
}

// newBuilder constructs the configured posting builder ("auto" picks
// the adaptive per-list selector).
func newBuilder(codecName string, shards int) (*index.Builder, error) {
	var builder *index.Builder
	if codecName == "auto" {
		builder = index.NewAutoBuilder()
	} else {
		codec, err := codecs.ByName(codecName)
		if err != nil {
			return nil, err
		}
		builder = index.NewBuilder(codec)
	}
	builder.SetShards(shards)
	return builder, nil
}

func runBuild(inFile, outFile, codecName, format string, shards int) error {
	if outFile == "" {
		return fmt.Errorf("build mode needs -out")
	}
	builder, err := newBuilder(codecName, shards)
	if err != nil {
		return err
	}
	var r io.Reader = os.Stdin
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	docs := 0
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			builder.AddDocument(line)
			docs++
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if docs == 0 {
		return fmt.Errorf("empty corpus: no non-blank documents in input, refusing to write %s", outFile)
	}
	idx, err := builder.Build()
	if err != nil {
		return err
	}
	// WriteFile publishes atomically (temp file, fsync, rename, dir
	// sync): an unwritable path or a failure mid-write surfaces here and
	// never leaves a torn index at outFile.
	if err := idx.WriteFile(outFile, index.Format(format)); err != nil {
		return err
	}
	st, err := os.Stat(outFile)
	if err != nil {
		return err
	}
	fmt.Printf("indexed %d documents, %d terms, %d compressed posting bytes -> %s (%d bytes)\n",
		docs, idx.Terms(), idx.SizeBytes(), outFile, st.Size())
	if codecName == "auto" {
		fmt.Printf("codec mix: %s\n", formatMix(idx.CodecMix()))
	}
	return nil
}

// readDocs loads the corpus into memory, one non-blank line per
// document — partitioning needs the whole corpus before it can deal
// documents round-robin.
func readDocs(inFile string) ([]string, error) {
	var r io.Reader = os.Stdin
	if inFile != "" {
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var docs []string
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			docs = append(docs, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return docs, nil
}

// runPartition builds the doc-partitioned serving layout: one
// independently compressed BVIX3 index per shard (shard-XXXX.bvix next
// to the manifest) plus the checksummed shard-map manifest at outFile.
// Each shard's lists are re-advised independently when -codec auto is
// in play: density is per-shard, so the adaptive builder may pick
// different codecs for the same term on different shards.
func runPartition(inFile, outFile, codecName, format string, shards, n int) error {
	if outFile == "" {
		return fmt.Errorf("partition mode needs -out (the shard-map manifest path)")
	}
	docs, err := readDocs(inFile)
	if err != nil {
		return err
	}
	if len(docs) == 0 {
		return fmt.Errorf("empty corpus: no non-blank documents in input, refusing to write %s", outFile)
	}
	// Partition refuses counts that would create empty shards (n >
	// number of documents) with a one-line cause.
	parts, err := shard.Partition(docs, n)
	if err != nil {
		return err
	}
	dir := filepath.Dir(outFile)
	m := &shard.Map{Version: shard.MapVersion, Partition: "mod", Shards: n, Docs: len(docs)}
	for s, part := range parts {
		builder, err := newBuilder(codecName, shards)
		if err != nil {
			return err
		}
		for _, d := range part {
			builder.AddDocument(d)
		}
		idx, err := builder.Build()
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		path := filepath.Join(dir, shard.FileName(s))
		if err := idx.WriteFile(path, index.Format(format)); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		entry, err := shard.EntryFor(path, idx.Docs(), idx.Terms())
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		m.Entries = append(m.Entries, entry)
		fmt.Printf("shard %d: %d documents, %d terms, %d compressed posting bytes -> %s\n",
			s, idx.Docs(), idx.Terms(), idx.SizeBytes(), path)
	}
	if err := shard.WriteMap(outFile, m); err != nil {
		return err
	}
	fmt.Printf("partitioned %d documents across %d shards -> %s\n", len(docs), n, outFile)
	return nil
}

// formatMix renders a codec mix deterministically, most-used first.
func formatMix(mix map[string]int) string {
	type kv struct {
		name string
		n    int
	}
	var rows []kv
	for name, n := range mix {
		if name == "" {
			name = "unknown"
		}
		rows = append(rows, kv{name, n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].n != rows[j].n {
			return rows[i].n > rows[j].n
		}
		return rows[i].name < rows[j].name
	})
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = fmt.Sprintf("%s=%d", r.name, r.n)
	}
	return strings.Join(parts, " ")
}

func runQuery(indexFile, query, mode string, k int, w io.Writer) error {
	if indexFile == "" {
		return fmt.Errorf("query mode needs -index")
	}
	// OpenFile maps the index zero-copy and materializes only the
	// postings the query touches.
	idx, err := index.OpenFile(indexFile)
	if err != nil {
		return err
	}
	defer idx.Close()
	terms := index.Tokenize(query)
	switch mode {
	case "and":
		docs, err := idx.Conjunctive(terms...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "AND%v -> %d docs: %v\n", terms, len(docs), docs)
	case "or":
		docs, err := idx.Disjunctive(terms...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "OR%v -> %d docs: %v\n", terms, len(docs), docs)
	case "topk":
		var stats ops.TopKStats
		results, err := idx.TopKWith("", k, &stats, terms...)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "TOP%d%v [%s]:\n", k, terms, stats.Mode)
		for _, r := range results {
			fmt.Fprintf(w, "  doc %d (score %d)\n", r.Doc, r.Score)
		}
		dense := ""
		if stats.Dense > 0 {
			dense = ", scored densely"
		}
		fmt.Fprintf(w, "  (%d/%d blocks decoded, %d docs scored%s)\n",
			stats.BlocksDecoded, stats.BlocksTotal, stats.DocsScored, dense)
	default:
		return fmt.Errorf("unknown mode %q (and | or | topk)", mode)
	}
	return nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bvindex: "+format+"\n", args...)
	os.Exit(1)
}
