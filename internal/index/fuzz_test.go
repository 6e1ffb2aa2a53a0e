package index

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"testing"

	"repro/internal/codecs"
)

// FuzzBVIX3Read feeds arbitrary bytes through both BVIX3 open paths —
// the eager Read and the lazy zero-copy opener. Truncations, flipped
// section lengths, and bad CRCs must surface as errors, never panics;
// validation is pure arithmetic over declared counts before anything
// is allocated, so a lying header cannot force an allocation larger
// than the input itself. Accepted inputs must answer lookups
// (including the lazy skip-frame search) without panicking. The
// retired BVIX1 and BVIX2 magics seed the refusal, which must fire
// before any of their header is read.
func FuzzBVIX3Read(f *testing.F) {
	for _, codecName := range []string{"Roaring", "VB", "PEF", "WAH"} {
		idx, err := buildFuzzIndex(codecName)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		file := buf.Bytes()
		f.Add(file)
		f.Add(file[:len(file)/2])
		f.Add(file[:bvix3HeaderSize])
		// Flipped section length, resealed so the geometry checks (not
		// the header CRC) are what the fuzzer starts from.
		bent := append([]byte{}, file...)
		bent[24+8] ^= 0xFF
		reseal3Header(bent)
		f.Add(bent)
	}
	// Adaptive-build seeds: a file whose dict carries a mix of per-term
	// codec bytes, plus doctored variants starting the fuzzer at the
	// codec-byte validation itself — out-of-range (walk rejection),
	// mismatched-but-valid (materialize rejection), and zeroed (legal).
	// CRCs are resealed so the codec byte, not a checksum, is what the
	// open paths see first.
	autoIdx, err := buildAutoFuzzIndex()
	if err != nil {
		f.Fatal(err)
	}
	var autoBuf bytes.Buffer
	if _, err := autoIdx.WriteTo(&autoBuf); err != nil {
		f.Fatal(err)
	}
	autoFile := autoBuf.Bytes()
	f.Add(autoFile)
	if offs := fuzzCodecByteOffsets(autoFile); len(offs) > 0 {
		for _, mutate := range []byte{codecs.MaxID() + 1, 0xFF, 0} {
			bent := append([]byte{}, autoFile...)
			bent[offs[len(offs)/2]] = mutate
			fuzzResealDict(bent)
			f.Add(bent)
		}
		bent := append([]byte{}, autoFile...)
		bent[offs[0]] = bent[offs[0]]%codecs.MaxID() + 1 // valid, likely mismatched
		fuzzResealDict(bent)
		f.Add(bent)
	}
	// Impacts-section (v4) seeds: the pristine file, truncations landing
	// inside the impacts section, a flipped impact byte (CRC rejection),
	// and resealed doctored variants that start the fuzzer at the
	// walkImpacts geometry validation — a lying offset table and a bent
	// section length.
	var v4Buf bytes.Buffer
	if _, err := autoIdx.WriteBVIX3Impacts(&v4Buf); err != nil {
		f.Fatal(err)
	}
	v4 := v4Buf.Bytes()
	f.Add(v4)
	impOff := binary.LittleEndian.Uint64(v4[24+3*20:])
	f.Add(v4[:impOff+8])
	f.Add(v4[:len(v4)-1])
	bent := append([]byte{}, v4...)
	bent[impOff+16] ^= 0xFF // an impact record byte; section CRC now fails
	f.Add(bent)
	bent = append([]byte{}, v4...)
	binary.LittleEndian.PutUint64(bent[impOff:], 4) // misaligned table entry
	fuzzResealImpacts(bent)
	f.Add(bent)
	bent = append([]byte{}, v4...)
	bent[24+3*20+8] ^= 0x0F // bend the impacts section length
	fuzzReseal4Header(bent)
	f.Add(bent)
	// A bvix3+impacts file whose SIMD lists pack their short last block,
	// written before VB tails (testdata/pretail/README.md).
	preTail, err := os.ReadFile(preTailIndexFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(preTail)
	// Frequency-list seeds: the v5 and v6 files above carry one γ list
	// per term. Beside them: a v3 file with raw frequencies
	// (testdata/prefreq/README.md), a v5 file truncated inside a
	// frequency list, one whose dict bends a list's length, and one whose
	// list bytes are bent under a resealed payload checksum, so that the
	// first ranked touch, not open, meets the bad list.
	preFreq, err := os.ReadFile(preFreqIndexFile)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(preFreq)
	if g, err := parseBVIX3(autoFile); err == nil {
		secs := sectionOffsets(autoFile)
		for cur, i := 0, 0; i < g.terms; i++ {
			rec, err := parseDictRecord(g.dict, cur)
			if err != nil || rec.freqLen == 0 {
				break
			}
			if i < g.terms/2 {
				cur = rec.next
				continue
			}
			list := secs[2][0] + rec.payOff + uint64(rec.postLen)
			f.Add(autoFile[:list+rec.freqLen/2])
			bent := append([]byte{}, autoFile...)
			bent[secs[0][0]+uint64(cur)+2+uint64(len(rec.name))+21]++ // list length
			fuzzResealDict(bent)
			f.Add(bent)
			bent = append([]byte{}, autoFile...)
			bent[list] ^= 0x24
			binary.LittleEndian.PutUint32(bent[24+2*20+16:], crc32.Checksum(bent[secs[2][0]:secs[2][0]+secs[2][1]], castagnoli))
			reseal3Header(bent)
			f.Add(bent)
			break
		}
	}
	f.Add([]byte{})
	f.Add([]byte("BVIX3"))
	f.Add(append([]byte("BVIX3\x01\x00\x00"), make([]byte, bvix3DataStart)...))
	f.Add(append([]byte("BVIX3\x04\x00\x00"), make([]byte, bvix3DataStart)...))
	f.Add([]byte("BVIX1"))
	f.Add(append([]byte("BVIX1"), bytes.Repeat([]byte{0xFF}, 8)...)) // header claiming 4G docs, 4G terms
	f.Add([]byte("BVIX2"))
	f.Add(append([]byte("BVIX2\x01"), 0, 0, 0, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRead(t, data)
		lazy, err := openBVIX3Lazy(data, nil)
		if err != nil {
			return
		}
		// Lazy-accepted: lookups and materialization must hold up —
		// including the ranked path, which exercises impact annotations
		// and the block-decoding cursors on v4 inputs.
		for _, probe := range []string{"compressed", "lists", "", "zzz"} {
			_ = lazy.DecodedPostings(probe)
		}
		if _, err := lazy.Conjunctive("compressed", "lists"); err != nil {
			t.Logf("conjunctive on accepted index: %v", err)
		}
		for _, algo := range []string{"exhaustive", "bmw"} {
			if _, err := lazy.TopKWith(algo, 3, nil, "compressed", "the", "lists"); err != nil {
				t.Logf("topk on accepted index: %v", err)
			}
		}
		if lazy.SizeBytes() < 0 || lazy.Terms() < 0 {
			t.Fatalf("lazy index with nonsense shape: terms=%d size=%d", lazy.Terms(), lazy.SizeBytes())
		}
	})
}

// FuzzIndexRead is the seed corpus of the stream reader: the WriteTo
// output of one codec per family, the empty input, and the retired
// BVIX1 and BVIX2 magics, which Read must refuse before any of their
// header is read. Its body is FuzzBVIX3Read's Read half; fuzz with
// FuzzBVIX3Read, which also covers the lazy opener.
func FuzzIndexRead(f *testing.F) {
	for _, codecName := range []string{"Roaring", "VB", "PEF", "WAH"} {
		idx, err := buildFuzzIndex(codecName)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := idx.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte("BVIX1"))
	f.Add(append([]byte("BVIX1"), bytes.Repeat([]byte{0xFF}, 8)...)) // header claiming 4G docs, 4G terms
	f.Add([]byte("BVIX2"))
	f.Add(append([]byte("BVIX2\x01"), 0, 0, 0, 0))
	f.Fuzz(checkRead)
}

// checkRead feeds data through Read. Read must never panic; an
// accepted index must answer its accessors and a query.
func checkRead(t *testing.T, data []byte) {
	idx, err := Read(bytes.NewReader(data))
	if err != nil {
		return // rejected: fine, as long as it didn't panic
	}
	if idx.Docs() < 0 || idx.Terms() < 0 || idx.SizeBytes() < 0 {
		t.Fatalf("accepted index with nonsense shape: docs=%d terms=%d size=%d",
			idx.Docs(), idx.Terms(), idx.SizeBytes())
	}
	if _, err := idx.Conjunctive("compressed", "lists"); err != nil {
		t.Logf("conjunctive on accepted index: %v", err)
	}
}

// buildFuzzIndex builds a small index without *testing.T plumbing so
// both seeds and other tests can reuse it.
func buildFuzzIndex(codecName string) (*Index, error) {
	codec, err := codecs.ByName(codecName)
	if err != nil {
		return nil, err
	}
	b := NewBuilder(codec)
	for _, d := range docs {
		b.AddDocument(d)
	}
	return b.Build()
}

// buildAutoFuzzIndex builds a small adaptive index: the fuzz corpus
// plus a stopword in every doc so the dict mixes dense-bitmap and
// sparse-list codec bytes.
func buildAutoFuzzIndex() (*Index, error) {
	b := NewAutoBuilder()
	for _, d := range docs {
		b.AddDocument("the " + d)
	}
	return b.Build()
}

// fuzzCodecByteOffsets and fuzzResealDict are *testing.F-friendly
// twins of the hybrid test helpers (those take *testing.T).
func fuzzCodecByteOffsets(file []byte) []uint64 {
	g, err := parseBVIX3(file)
	if err != nil {
		return nil
	}
	secs := sectionOffsets(file)
	var out []uint64
	cur := 0
	for i := 0; i < g.terms; i++ {
		rec, err := parseDictRecord(g.dict, cur)
		if err != nil {
			return nil
		}
		out = append(out, secs[0][0]+uint64(cur)+2+uint64(len(rec.name))+20)
		cur = rec.next
	}
	return out
}

func fuzzResealDict(file []byte) {
	secs := sectionOffsets(file)
	binary.LittleEndian.PutUint32(file[24+16:],
		crc32.Checksum(file[secs[0][0]:secs[0][0]+secs[0][1]], castagnoli))
	reseal3Header(file)
}

// fuzzReseal4Header and fuzzResealImpacts are the v4 resealing twins:
// the header checksum sits after a four-entry section table, and the
// impacts section CRC lives in its table slot.
func fuzzReseal4Header(file []byte) {
	hs := bvix3HeaderSizeFor(4)
	binary.LittleEndian.PutUint32(file[hs-4:],
		crc32.Checksum(file[len(bvix3Magic):hs-4], castagnoli))
}

func fuzzResealImpacts(file []byte) {
	off := binary.LittleEndian.Uint64(file[24+3*20:])
	length := binary.LittleEndian.Uint64(file[24+3*20+8:])
	binary.LittleEndian.PutUint32(file[24+3*20+16:],
		crc32.Checksum(file[off:off+length], castagnoli))
	fuzzReseal4Header(file)
}
