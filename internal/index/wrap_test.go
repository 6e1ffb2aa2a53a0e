package index

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
)

// Regression tests for error-chain integrity: every open path must
// wrap with %w all the way up, so callers (bvserve's retry loop, the
// degraded fallback, operators' scripts) can classify failures with
// errors.Is instead of string matching. One test per on-disk format.

func TestOpenFileWrapsChecksumBVIX3(t *testing.T) {
	file := serialize3(t, buildTestIndex(t, "Roaring"))
	secs := sectionOffsets(file)
	file[secs[2][0]] ^= 0x01 // payload byte, breaks the section CRC
	p := writeTemp3(t, file)

	_, err := OpenFile(p)
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("OpenFile on corrupt BVIX3 = %v, want errors.Is ErrChecksum", err)
	}
	if _, rerr := Read(bytes.NewReader(file)); !errors.Is(rerr, core.ErrChecksum) {
		t.Fatalf("Read on corrupt BVIX3 = %v, want errors.Is ErrChecksum", rerr)
	}
	if !core.IsPermanentFormat(err) || core.IsTransient(err) {
		t.Fatalf("corrupt BVIX3 misclassified: permanent=%v transient=%v",
			core.IsPermanentFormat(err), core.IsTransient(err))
	}
}

// The retired formats — BVIX1 (the unversioned, unchecksummed seed
// format) and BVIX2 (the checksummed streaming format) — are refused by
// every open path with ErrVersion, naming the format, so a retry loop
// gives up instead of waiting for the file to heal.
func TestOpenFileWrapsTruncationBVIX1(t *testing.T) {
	for _, tc := range []struct {
		magic string
		file  []byte
	}{
		{"BVIX1", append([]byte("BVIX1"), make([]byte, 8)...)},        // magic + an empty header
		{"BVIX2", append([]byte("BVIX2\x01"), make([]byte, 8+4)...)},  // version, empty header, trailer
		{"BVIX2", append([]byte("BVIX2\x01"), make([]byte, 4096)...)}, // longer than a BVIX3 header
	} {
		p := writeTemp3(t, tc.file)

		_, err := OpenFile(p)
		if !errors.Is(err, core.ErrVersion) || !strings.Contains(err.Error(), tc.magic) {
			t.Fatalf("OpenFile on %s = %v, want errors.Is ErrVersion naming %s", tc.magic, err, tc.magic)
		}
		if _, rerr := Read(bytes.NewReader(tc.file)); !errors.Is(rerr, core.ErrVersion) || !strings.Contains(rerr.Error(), tc.magic) {
			t.Fatalf("Read on %s = %v, want errors.Is ErrVersion naming %s", tc.magic, rerr, tc.magic)
		}
		if _, derr := OpenFileDegraded(p); !errors.Is(derr, core.ErrVersion) || !strings.Contains(derr.Error(), tc.magic) {
			t.Fatalf("OpenFileDegraded on %s = %v, want errors.Is ErrVersion naming %s", tc.magic, derr, tc.magic)
		}
		if !core.IsPermanentFormat(err) || core.IsTransient(err) {
			t.Fatalf("%s misclassified: permanent=%v transient=%v",
				tc.magic, core.IsPermanentFormat(err), core.IsTransient(err))
		}
	}
}

func TestOpenFileWrapsVersion(t *testing.T) {
	file := serialize3(t, buildTestIndex(t, "Roaring"))
	file[len(bvix3Magic)] = 0x7F // version byte
	reseal3Header(file)
	p := writeTemp3(t, file)

	_, err := OpenFile(p)
	if !errors.Is(err, core.ErrVersion) {
		t.Fatalf("OpenFile on future-versioned BVIX3 = %v, want errors.Is ErrVersion", err)
	}
	if !core.IsPermanentFormat(err) {
		t.Fatal("version failure not classified permanent-format")
	}
}

func TestOpenFileWrapsNotExist(t *testing.T) {
	_, err := OpenFile(writeTemp3(t, nil) + ".missing")
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("OpenFile on missing path = %v, want errors.Is fs.ErrNotExist", err)
	}
	if core.IsTransient(err) {
		t.Fatal("missing file classified transient")
	}
}
