package index

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/faultio"
)

// Crash-safe index publication. WriteTo/WriteBVIX3Impacts stream
// bytes to a writer and leave durability to the caller; WriteFile is
// the caller that gets it right: write to a temp file in the destination
// directory, fsync the file, atomically rename over the destination,
// then fsync the parent directory so the rename itself is durable. A
// crash at any point leaves the destination either untouched (the old
// generation, intact) or fully replaced (the new one, intact) — never
// a torn mixture. The crash-consistency matrix in crash_test.go kills
// the protocol at every operation and asserts exactly that.

// Format names an on-disk index format for WriteFile.
type Format string

const (
	// FormatBVIX3 is the section-aligned mmap serving format.
	FormatBVIX3 Format = "bvix3"
	// FormatBVIX3Impacts is BVIX3 with the impacts section (v6): ranked
	// top-k annotations (quantized impacts + block-max frame) alongside
	// the postings, enabling Block-Max pruning straight off the mapping.
	FormatBVIX3Impacts Format = "bvix3+impacts"
)

// writeFunc resolves the serializer for a format.
func (idx *Index) writeFunc(format Format) (func(io.Writer) (int64, error), error) {
	switch format {
	case FormatBVIX3:
		return idx.WriteTo, nil
	case FormatBVIX3Impacts:
		return idx.WriteBVIX3Impacts, nil
	default:
		return nil, fmt.Errorf("index: unknown format %q (bvix3 | bvix3+impacts)", format)
	}
}

// WriteFile atomically publishes the index at path in the given
// format. On return without error, the bytes at path are the complete
// new index and the publication survives a crash. On error, path holds
// either the previous generation untouched or — only when the final
// directory sync failed after the rename — the complete new index;
// never a torn mixture. The temp file is best-effort removed.
func (idx *Index) WriteFile(path string, format Format) error {
	return idx.writeFileFS(faultio.OS, path, format)
}

// writeFileFS is WriteFile against an explicit file system — the seam
// the fault-injection tests drive.
func (idx *Index) writeFileFS(fsys faultio.FS, path string, format Format) error {
	write, err := idx.writeFunc(format)
	if err != nil {
		return err
	}
	return publishFile(fsys, path, write)
}

// publishFile is the publish protocol itself for any serializer;
// compaction publishes its streamed output through it without building
// an Index. The temp name is deterministic per (path, pid): concurrent
// publishers of the same path from one process must serialize, which
// every caller in this module already does.
func publishFile(fsys faultio.FS, path string, write func(io.Writer) (int64, error)) (err error) {
	tmp := fmt.Sprintf("%s.tmp.%d", path, os.Getpid())
	defer func() {
		if err != nil {
			// Best-effort cleanup; the orphan is harmless either way
			// (a later publish with the same pid truncates it).
			_ = fsys.Remove(tmp)
		}
	}()
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("index: create %s: %w", tmp, err)
	}
	if _, err = write(f); err != nil {
		f.Close()
		return fmt.Errorf("index: write %s: %w", tmp, err)
	}
	// fsync before rename: without it, a crash after the rename could
	// expose a destination whose directory entry is durable but whose
	// data blocks never hit the disk.
	if err = f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("index: sync %s: %w", tmp, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("index: close %s: %w", tmp, err)
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return fmt.Errorf("index: rename %s -> %s: %w", tmp, path, err)
	}
	// fsync the parent so the rename (the publish) is durable, not just
	// ordered. A failure here is reported but the destination is already
	// consistent — the old or new index, never a mixture.
	if err = fsys.SyncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("index: sync dir %s: %w", filepath.Dir(path), err)
	}
	return nil
}
