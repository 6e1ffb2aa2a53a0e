package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

const (
	defaultMaxDocs = 1 << 22
	defaultMaxLine = 1 << 20
)

func TestLoadIndexPaths(t *testing.T) {
	dir := t.TempDir()
	docs := filepath.Join(dir, "docs.txt")
	if err := os.WriteFile(docs, []byte("alpha beta\ngamma\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := loadIndex(docs, "", "VB", 0, defaultMaxDocs, defaultMaxLine, true)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Docs() != 2 {
		t.Fatalf("docs = %d", idx.Docs())
	}
	// Round trip through a serialized index file.
	idxFile := filepath.Join(dir, "docs.idx")
	f, err := os.Create(idxFile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, err := loadIndex("", idxFile, "", 0, defaultMaxDocs, defaultMaxLine, true)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Docs() != 2 {
		t.Fatalf("loaded docs = %d", loaded.Docs())
	}
	// Neither input: error.
	if _, err := loadIndex("", "", "Roaring", 0, defaultMaxDocs, defaultMaxLine, true); err == nil {
		t.Error("expected error with no inputs")
	}
	if _, err := loadIndex(docs, "", "NoSuchCodec", 0, defaultMaxDocs, defaultMaxLine, true); err == nil {
		t.Error("expected error for unknown codec")
	}
}

func TestLoadIndexBounds(t *testing.T) {
	dir := t.TempDir()

	// Document count over the cap: clear error naming the limit.
	many := filepath.Join(dir, "many.txt")
	if err := os.WriteFile(many, []byte("one\ntwo\nthree\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := loadIndex(many, "", "Roaring", 0, 2, defaultMaxLine, true)
	if err == nil || !strings.Contains(err.Error(), "max-docs") {
		t.Fatalf("over max-docs: err = %v, want message naming -max-docs", err)
	}

	// A line longer than the scanner budget: a clear error naming the
	// line and the limit, not a silent truncation.
	long := filepath.Join(dir, "long.txt")
	if err := os.WriteFile(long, []byte("short line\n"+strings.Repeat("x", 300)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = loadIndex(long, "", "Roaring", 0, defaultMaxDocs, 128, true)
	if err == nil || !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "max-line") {
		t.Fatalf("over max-line: err = %v, want message naming line 2 and -max-line", err)
	}

	// Blank lines don't count against the document cap.
	blanks := filepath.Join(dir, "blanks.txt")
	if err := os.WriteFile(blanks, []byte("\n\nalpha\n\nbeta\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	idx, err := loadIndex(blanks, "", "Roaring", 0, 2, defaultMaxLine, true)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Docs() != 2 {
		t.Fatalf("docs = %d, want 2", idx.Docs())
	}
}

// syncBuffer lets the server goroutine log while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func waitFor(t *testing.T, buf *syncBuffer, substr string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(buf.String(), substr) {
		if time.Now().After(deadline) {
			t.Fatalf("log never contained %q; log:\n%s", substr, buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunLifecycle drives run() the way main does: start on an
// ephemeral port, hot-reload via SIGHUP, then cancel the context and
// expect a clean (nil) return from the graceful drain.
func TestRunLifecycle(t *testing.T) {
	dir := t.TempDir()
	docs := filepath.Join(dir, "docs.txt")
	if err := os.WriteFile(docs, []byte("compressed bitmaps\ninverted lists\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := &syncBuffer{}
	logger := log.New(buf, "", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-in", docs, "-addr", "127.0.0.1:0", "-drain", "2s"}, logger)
	}()
	// The SIGHUP handler is installed before the listener comes up, so
	// once "listening" is logged the signal is safe to send.
	waitFor(t, buf, "listening on")

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitFor(t, buf, "hot-reloaded index")

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v, want nil after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after context cancel")
	}
	if !strings.Contains(buf.String(), "shutdown complete") {
		t.Fatalf("no clean shutdown logged; log:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	logger := log.New(&syncBuffer{}, "", 0)
	ctx := context.Background()
	if err := run(ctx, []string{"-no-such-flag"}, logger); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run(ctx, nil, logger); err == nil {
		t.Error("run with no index source succeeded")
	}
	if err := run(ctx, []string{"-in", "/does/not/exist.txt"}, logger); err == nil {
		t.Error("missing input file accepted")
	}
}

// TestValidateFlags: nonsensical configurations exit non-zero at parse
// time with a one-line cause naming the flag, before any index loads
// or socket binds.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string // flag the error must name
	}{
		{[]string{"-load-retries", "-3"}, "-load-retries"},
		{[]string{"-load-retries", "0"}, "-load-retries"},
		{[]string{"-read-timeout", "0"}, "-read-timeout"},
		{[]string{"-write-timeout", "-1s"}, "-write-timeout"},
		{[]string{"-idle-timeout", "0"}, "-idle-timeout"},
		{[]string{"-request-timeout", "-5ms"}, "-request-timeout"},
		{[]string{"-drain", "0"}, "-drain"},
		{[]string{"-shards", "-1"}, "-shards"},
		{[]string{"-shards", "5000"}, "-shards"},
		{[]string{"-max-inflight", "0"}, "-max-inflight"},
		{[]string{"-max-terms", "-2"}, "-max-terms"},
		{[]string{"-max-k", "0"}, "-max-k"},
		{[]string{"-max-url", "0"}, "-max-url"},
		{[]string{"-max-docs", "0"}, "-max-docs"},
		{[]string{"-max-line", "-10"}, "-max-line"},
		{[]string{"-addr", ""}, "-addr"},
	}
	for _, c := range cases {
		// -in is syntactically valid here; validation must fail first.
		args := append([]string{"-in", "unused.txt"}, c.args...)
		err := run(context.Background(), args, log.New(&syncBuffer{}, "", 0))
		if err == nil {
			t.Errorf("args %v accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not name %s", c.args, err, c.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("args %v: cause is not one line: %q", c.args, err)
		}
	}
}

// TestValidateLiveFlags: the live-ingestion flags get the same
// parse-time validation with one-line causes.
func TestValidateLiveFlags(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-live", "d", "-in", "x.txt"}, "-live"},
		{[]string{"-live", "d", "-index", "x.idx"}, "-live"},
		{[]string{"-live", "d", "-seal-docs", "-1"}, "-seal-docs"},
		{[]string{"-live", "d", "-compact-segments", "-2"}, "-compact-segments"},
		{[]string{"-live", "d", "-ingest-queue", "0"}, "-ingest-queue"},
	}
	for _, c := range cases {
		err := run(context.Background(), c.args, log.New(&syncBuffer{}, "", 0))
		if err == nil {
			t.Errorf("args %v accepted", c.args)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not name %s", c.args, err, c.want)
		}
		if strings.Contains(err.Error(), "\n") {
			t.Errorf("args %v: cause is not one line: %q", c.args, err)
		}
	}
}

// TestRunLiveLifecycle boots live mode on a fresh directory, waits for
// the listener, force-seals via SIGHUP, and shuts down cleanly.
func TestRunLiveLifecycle(t *testing.T) {
	buf := &syncBuffer{}
	logger := log.New(buf, "", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-live", filepath.Join(t.TempDir(), "live"), "-addr", "127.0.0.1:0", "-drain", "2s"}, logger)
	}()
	waitFor(t, buf, "listening on")
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run = %v, want nil after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("run did not return after context cancel")
	}
	if !strings.Contains(buf.String(), "live index") {
		t.Fatalf("live boot not logged; log:\n%s", buf.String())
	}
}

// TestLoadWithRetryTransient: transient failures back off and retry;
// the call succeeds once the underlying condition clears.
func TestLoadWithRetryTransient(t *testing.T) {
	buf := &syncBuffer{}
	logger := log.New(buf, "", 0)
	attempts := 0
	idx, err := loadWithRetry(context.Background(), logger, 5, func() (*index.Index, error) {
		attempts++
		if attempts < 3 {
			return nil, core.Transient(errors.New("index store warming up"))
		}
		return buildSmallIndex(t), nil
	})
	if err != nil {
		t.Fatalf("loadWithRetry = %v", err)
	}
	if idx == nil || attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
	if !strings.Contains(buf.String(), "retrying in") {
		t.Fatalf("no backoff logged:\n%s", buf.String())
	}
}

// TestLoadWithRetryPermanent: a permanent failure (corrupt index) must
// not be retried — it exits immediately with the cause.
func TestLoadWithRetryPermanent(t *testing.T) {
	attempts := 0
	_, err := loadWithRetry(context.Background(), log.New(&syncBuffer{}, "", 0), 5, func() (*index.Index, error) {
		attempts++
		return nil, fmt.Errorf("open: %w", core.ErrChecksum)
	})
	if err == nil || attempts != 1 {
		t.Fatalf("permanent failure: err=%v attempts=%d, want 1 attempt", err, attempts)
	}
}

// TestLoadWithRetryContextCancel: shutdown interrupts the backoff
// sleep instead of waiting it out.
func TestLoadWithRetryContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	start := time.Now()
	_, err := loadWithRetry(ctx, log.New(&syncBuffer{}, "", 0), 100, func() (*index.Index, error) {
		return nil, core.Transient(errors.New("never ready"))
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if time.Since(start) > 3*time.Second {
		t.Fatal("cancel did not interrupt the backoff")
	}
}

func buildSmallIndex(t *testing.T) *index.Index {
	t.Helper()
	idx, err := loadIndexFromDocs(t, "alpha beta\ngamma alpha\n")
	if err != nil {
		t.Fatal(err)
	}
	return idx
}

func loadIndexFromDocs(t *testing.T, content string) (*index.Index, error) {
	t.Helper()
	p := filepath.Join(t.TempDir(), "docs.txt")
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return loadIndex(p, "", "Roaring", 0, defaultMaxDocs, defaultMaxLine, true)
}

// TestLoadIndexDegradedFallback: with -allow-degraded a checksum-failed
// BVIX3 file serves in degraded mode; without it the corruption is
// fatal. Damage beyond salvage (a corrupt header) is fatal either way.
func TestLoadIndexDegradedFallback(t *testing.T) {
	idx := buildSmallIndex(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "x.bvix3")
	if err := idx.WriteFile(path, index.FormatBVIX3); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	file[len(file)-1] ^= 0x01 // last payload byte: a section CRC now fails
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := loadIndex("", path, "", 0, defaultMaxDocs, defaultMaxLine, false); err == nil {
		t.Fatal("corrupt index accepted without -allow-degraded")
	}
	deg, err := loadIndex("", path, "", 0, defaultMaxDocs, defaultMaxLine, true)
	if err != nil {
		t.Fatalf("degraded fallback failed: %v", err)
	}
	if !deg.Health().Degraded {
		t.Fatal("fallback index does not report degraded")
	}

	file[8] ^= 0x01 // header byte: salvage impossible
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadIndex("", path, "", 0, defaultMaxDocs, defaultMaxLine, true); err == nil {
		t.Fatal("unsalvageable index accepted")
	}
}
