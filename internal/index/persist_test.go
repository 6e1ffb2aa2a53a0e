package index

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/core"
)

// reseal recomputes the CRC trailer of a versioned file after a test
// mutated its body, keeping the mutation visible to the parser.
func reseal(file []byte) {
	body := file[len(indexMagic) : len(file)-4]
	binary.LittleEndian.PutUint32(file[len(file)-4:], crc32.Checksum(body, castagnoli))
}

func serialize(t testing.TB, idx *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestVersionedFormatLayout(t *testing.T) {
	file := serialize(t, buildTestIndex(t, "Roaring"))
	if !bytes.HasPrefix(file, indexMagic) {
		t.Fatalf("file starts %q, want magic %q", file[:6], indexMagic)
	}
	if file[len(indexMagic)] != formatVersion {
		t.Fatalf("version byte = %d, want %d", file[len(indexMagic)], formatVersion)
	}
	body := file[len(indexMagic) : len(file)-4]
	want := binary.LittleEndian.Uint32(file[len(file)-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		t.Fatalf("trailer crc %08x does not cover version+payload (computed %08x)", want, got)
	}
}

// TestReadRejectsBitFlips is the acceptance check for the checksum: a
// single flipped bit at ANY offset past the magic must surface as
// core.ErrChecksum; flips inside the magic must still be rejected.
func TestReadRejectsBitFlips(t *testing.T) {
	file := serialize(t, buildTestIndex(t, "Roaring"))
	for i := range file {
		mut := make([]byte, len(file))
		copy(mut, file)
		mut[i] ^= 0x01
		_, err := Read(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		if i >= len(indexMagic) && !errors.Is(err, core.ErrChecksum) {
			t.Fatalf("flip at byte %d: got %v, want ErrChecksum", i, err)
		}
	}
}

func TestReadUnsupportedVersion(t *testing.T) {
	file := serialize(t, buildTestIndex(t, "VB"))
	file[len(indexMagic)] = 9 // future version
	reseal(file)              // valid checksum, so the version check is what fires
	_, err := Read(bytes.NewReader(file))
	if !errors.Is(err, core.ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

func TestReadRejectsLyingCounts(t *testing.T) {
	file := serialize(t, buildTestIndex(t, "Roaring"))
	magicLen := len(indexMagic)

	// Term count claiming 4 billion terms in a tiny file: must fail on
	// the cheap arithmetic bound, not by allocating per declared count.
	huge := make([]byte, len(file))
	copy(huge, file)
	binary.LittleEndian.PutUint32(huge[magicLen+1+4:], 0xFFFFFFFF)
	reseal(huge)
	if _, err := Read(bytes.NewReader(huge)); err == nil || errors.Is(err, core.ErrChecksum) {
		t.Fatalf("huge term count: got %v, want a count-bound parse error", err)
	}

	// Trailing bytes after the declared terms (checksummed, so only a
	// buggy writer produces this): rejected, not silently ignored.
	trailing := append([]byte{}, file[:len(file)-4]...)
	trailing = append(trailing, 0xAB, 0, 0, 0, 0)
	reseal(trailing)
	if _, err := Read(bytes.NewReader(trailing)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestReadTruncatedVersioned(t *testing.T) {
	file := serialize(t, buildTestIndex(t, "PEF"))
	for _, cut := range []int{len(indexMagic), len(indexMagic) + 1, len(file) / 2, len(file) - 1} {
		_, err := Read(bytes.NewReader(file[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if cut > len(indexMagic)+4 && !errors.Is(err, core.ErrChecksum) {
			t.Fatalf("truncation at %d: got %v, want ErrChecksum", cut, err)
		}
	}
}
