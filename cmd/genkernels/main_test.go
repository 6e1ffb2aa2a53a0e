package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestGeneratedFilesInSync regenerates every kernel file in memory and
// compares it byte-for-byte against the committed copy under
// internal/kernels. A mismatch means someone edited the generator (or a
// generated file by hand) without rerunning go generate; CI enforces the
// same invariant via `go generate ./... && git diff --exit-code`. A
// *_gen.go file the generator no longer emits fails too: go generate
// never deletes it, and it would still compile as dead kernels.
func TestGeneratedFilesInSync(t *testing.T) {
	files, err := Files()
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	if len(files) == 0 {
		t.Fatal("generator produced no files")
	}
	dir := filepath.Join("..", "..", "internal", "kernels")
	for name, want := range files {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v (run `go generate ./internal/kernels`)", name, err)
			continue
		}
		if string(got) != string(want) {
			t.Errorf("%s: committed file differs from generator output (run `go generate ./internal/kernels`)", name)
		}
	}
	onDisk, err := filepath.Glob(filepath.Join(dir, "*_gen.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range onDisk {
		if _, ok := files[filepath.Base(path)]; !ok {
			t.Errorf("%s: generator no longer emits this file (delete it)", filepath.Base(path))
		}
	}
}
