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

func TestOpenFileWrapsChecksumBVIX2(t *testing.T) {
	file := serialize(t, buildTestIndex(t, "Roaring"))
	file[len(file)/2] ^= 0x01 // body byte; trailer CRC now lies
	p := writeTemp3(t, file)

	_, err := OpenFile(p)
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("OpenFile on corrupt BVIX2 = %v, want errors.Is ErrChecksum", err)
	}
	if _, rerr := Read(bytes.NewReader(file)); !errors.Is(rerr, core.ErrChecksum) {
		t.Fatalf("Read on corrupt BVIX2 = %v, want errors.Is ErrChecksum", rerr)
	}
	if core.IsTransient(err) {
		t.Fatal("checksum failure classified transient")
	}
}

// BVIX1 (the unversioned, unchecksummed seed format) is retired: both
// open paths refuse its magic with ErrVersion, naming the format, so a
// retry loop gives up instead of waiting for the file to heal.
func TestOpenFileWrapsTruncationBVIX1(t *testing.T) {
	file := append([]byte("BVIX1"), make([]byte, 8)...) // magic + an empty header
	p := writeTemp3(t, file)

	_, err := OpenFile(p)
	if !errors.Is(err, core.ErrVersion) || !strings.Contains(err.Error(), "BVIX1") {
		t.Fatalf("OpenFile on BVIX1 = %v, want errors.Is ErrVersion naming BVIX1", err)
	}
	if _, rerr := Read(bytes.NewReader(file)); !errors.Is(rerr, core.ErrVersion) {
		t.Fatalf("Read on BVIX1 = %v, want errors.Is ErrVersion", rerr)
	}
	if !core.IsPermanentFormat(err) || core.IsTransient(err) {
		t.Fatalf("BVIX1 misclassified: permanent=%v transient=%v",
			core.IsPermanentFormat(err), core.IsTransient(err))
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
