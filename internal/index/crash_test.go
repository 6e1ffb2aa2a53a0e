package index

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultio"
)

// fingerprint summarizes an index for old-vs-new identification in the
// crash matrix: shape plus the decoded postings of a probe set.
type fingerprint struct {
	docs, terms int
	probes      map[string][]uint32
}

func fingerprintOf(idx *Index, probes []string) fingerprint {
	fp := fingerprint{docs: idx.Docs(), terms: idx.Terms(), probes: map[string][]uint32{}}
	for _, p := range probes {
		fp.probes[p] = idx.DecodedPostings(p)
	}
	return fp
}

func (fp fingerprint) equal(other fingerprint) bool {
	return fp.docs == other.docs && fp.terms == other.terms &&
		reflect.DeepEqual(fp.probes, other.probes)
}

// TestCrashConsistencyMatrix is the acceptance gate for WriteFile: for
// every operation in the atomic-publish protocol, kill the writer at
// that operation (all later I/O fails, as a dead process's would) and
// assert that opening the destination afterwards yields either the
// intact previous generation or the complete new one — never a torn
// state, an error, or a panic. Torn writes at several byte offsets of
// every write op are part of the matrix.
func TestCrashConsistencyMatrix(t *testing.T) {
	oldIdx := buildTestIndex(t, "Roaring")
	newIdx := buildWideIndex(t, "Roaring", 1)
	probes := []string{"compressed", "lists", "w0001", "w0042"}
	oldFP := fingerprintOf(oldIdx, probes)
	newFP := fingerprintOf(newIdx, probes)
	if oldFP.equal(newFP) {
		t.Fatal("old and new indexes must be distinguishable")
	}

	for _, format := range []Format{FormatBVIX3} {
		format := format
		t.Run(string(format), func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "idx")

			// Learn the op trace of a clean publish (into a scratch dir so
			// the real destination starts untouched).
			trace, err := faultio.Record(faultio.OS, func(fs faultio.FS) error {
				return newIdx.writeFileFS(fs, filepath.Join(t.TempDir(), "scratch"), format)
			})
			if err != nil {
				t.Fatalf("clean publish failed: %v", err)
			}
			if len(trace) < 5 {
				t.Fatalf("publish protocol ran only %d ops: %v", len(trace), trace)
			}

			reset := func() {
				if err := oldIdx.WriteFile(path, format); err != nil {
					t.Fatalf("seeding previous generation: %v", err)
				}
			}
			check := func(point string) {
				got, err := OpenFile(path)
				if err != nil {
					t.Fatalf("%s: open after crash failed: %v", point, err)
				}
				defer got.Close()
				fp := fingerprintOf(got, probes)
				if !fp.equal(oldFP) && !fp.equal(newFP) {
					t.Fatalf("%s: post-crash index is neither old nor new generation (docs=%d terms=%d)",
						point, fp.docs, fp.terms)
				}
				// Recovery: a clean retry must always land the new index.
				if err := newIdx.WriteFile(path, format); err != nil {
					t.Fatalf("%s: retry publish failed: %v", point, err)
				}
				after, err := OpenFile(path)
				if err != nil {
					t.Fatalf("%s: open after retry failed: %v", point, err)
				}
				defer after.Close()
				if !fingerprintOf(after, probes).equal(newFP) {
					t.Fatalf("%s: retry did not converge on the new generation", point)
				}
			}

			// Kill point at every op in the protocol.
			for n := 1; n <= len(trace); n++ {
				reset()
				in := faultio.NewInjector(faultio.OS,
					faultio.Fault{Op: faultio.OpAny, N: n, Mode: faultio.ModeErr, Kill: true})
				if err := newIdx.writeFileFS(in, path, format); err == nil {
					t.Fatalf("kill point %d: publish reported success", n)
				} else if !errors.Is(err, faultio.ErrInjected) && !errors.Is(err, faultio.ErrKilled) {
					t.Fatalf("kill point %d: unexpected error %v", n, err)
				}
				check(trace[n-1].Op.String())
			}

			// Torn-write points: each write op dies after 0, 1, half, and
			// len-1 bytes — the section boundaries of the format plus torn
			// interiors.
			writeIdx := 0
			for _, rec := range trace {
				if rec.Op != faultio.OpWrite {
					continue
				}
				writeIdx++
				for _, k := range []int{0, 1, rec.Bytes / 2, rec.Bytes - 1} {
					if k < 0 {
						continue
					}
					reset()
					in := faultio.NewInjector(faultio.OS,
						faultio.Fault{Op: faultio.OpWrite, N: writeIdx, Mode: faultio.ModeTorn, TornBytes: k, Kill: true})
					if err := newIdx.writeFileFS(in, path, format); err == nil {
						t.Fatalf("torn write %d at %d bytes: publish reported success", writeIdx, k)
					}
					check("torn-write")
				}
			}
		})
	}
}

// TestWriteFileCleansTempOnFailure: a failed publish must not leave
// the temp file behind to confuse the next generation's publish.
func TestWriteFileCleansTempOnFailure(t *testing.T) {
	idx := buildTestIndex(t, "Roaring")
	dir := t.TempDir()
	path := filepath.Join(dir, "idx")
	in := faultio.NewInjector(faultio.OS,
		faultio.Fault{Op: faultio.OpSync, N: 1, Mode: faultio.ModeErr})
	if err := idx.writeFileFS(in, path, FormatBVIX3); err == nil {
		t.Fatal("publish should have failed")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("failed publish left %d entries behind: %v", len(entries), entries)
	}
}

// TestWriteFileSurvivesInFlightBitFlip: a bit flipped between the
// writer and the disk lands in the published file, but the checksums
// catch it at open — the flip cannot be served as silently-wrong data.
func TestWriteFileSurvivesInFlightBitFlip(t *testing.T) {
	idx := buildWideIndex(t, "Roaring", 1)
	for _, format := range []Format{FormatBVIX3} {
		path := filepath.Join(t.TempDir(), "idx")
		in := faultio.NewInjector(faultio.OS,
			faultio.Fault{Op: faultio.OpWrite, N: 1, Mode: faultio.ModeFlip, FlipBit: 16*8 + 3})
		if err := idx.writeFileFS(in, path, format); err != nil {
			t.Fatalf("%s: flip publish failed: %v", format, err)
		}
		if _, err := OpenFile(path); err == nil {
			t.Fatalf("%s: bit-flipped index opened cleanly", format)
		}
	}
}

func TestWriteFileUnknownFormat(t *testing.T) {
	idx := buildTestIndex(t, "Roaring")
	if err := idx.WriteFile(filepath.Join(t.TempDir(), "x"), Format("bvix9")); err == nil {
		t.Fatal("unknown format accepted")
	}
}
