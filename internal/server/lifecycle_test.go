package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
)

// writeIndexFile persists idx in the versioned checksummed format.
func writeIndexFile(t testing.TB, path string, idx *index.Index) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := idx.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFullLifecycle is the issue's acceptance scenario end to end:
// start the server, serve a query, hot-reload to a new on-disk index
// via POST /reload with zero failed requests, then shut down
// gracefully within the drain deadline.
func TestFullLifecycle(t *testing.T) {
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "docs.idx")
	writeIndexFile(t, idxPath, buildIndex(t, testDocs...))

	load := func() (*index.Index, error) {
		f, err := os.Open(idxPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return index.Read(f)
	}
	first, err := load()
	if err != nil {
		t.Fatal(err)
	}
	s := New(first, Config{DrainDeadline: 5 * time.Second, Logger: quiet})
	s.SetLoader(load)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Keep-alives off: a pooled transport can park a dialed-but-unused
	// connection, which the server holds in StateNew and net/http's
	// Shutdown waits 5 s on — the whole of this test's drain wait.
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	getJSON := func(method, path string) (int, map[string]interface{}) {
		t.Helper()
		req, err := http.NewRequest(method, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		var body map[string]interface{}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.StatusCode, body
	}

	// Wait for readiness.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, _ := getJSON(http.MethodGet, "/readyz")
		if st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Serve a query against the initial index.
	st, body := getJSON(http.MethodGet, "/search?q=compressed+bitmap")
	if st != http.StatusOK || body["matches"].(float64) != 1 {
		t.Fatalf("initial search = %d %v", st, body)
	}

	// Continuous traffic that must never see a failure across the swap.
	stopTraffic := make(chan struct{})
	trafficErr := make(chan error, 1)
	go func() {
		defer close(trafficErr)
		for {
			select {
			case <-stopTraffic:
				return
			default:
			}
			resp, err := client.Get(base + "/search?q=compressed&mode=topk&k=2")
			if err != nil {
				trafficErr <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				trafficErr <- fmt.Errorf("query failed with status %d during reload", resp.StatusCode)
				return
			}
		}
	}()

	// Rewrite the index file with more documents and hot-swap it in.
	writeIndexFile(t, idxPath, buildIndex(t, append(testDocs, "fresh document", "another fresh document")...))
	st, body = getJSON(http.MethodPost, "/reload")
	if st != http.StatusOK || body["docs"].(float64) != 5 {
		t.Fatalf("reload = %d %v", st, body)
	}
	st, body = getJSON(http.MethodGet, "/stats")
	if st != http.StatusOK || body["documents"].(float64) != 5 {
		t.Fatalf("stats after reload = %d %v", st, body)
	}

	close(stopTraffic)
	if err, failed := <-trafficErr; failed {
		t.Fatalf("request failed during hot reload: %v", err)
	}

	// Graceful shutdown within the drain deadline.
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve = %v, want clean shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown exceeded drain deadline")
	}
}

// TestReloadRollbackOnCorruptFile wires the checksummed persistence
// into the reload path: a corrupted index file fails verification with
// ErrChecksum and the server keeps serving the old snapshot.
func TestReloadRollbackOnCorruptFile(t *testing.T) {
	dir := t.TempDir()
	idxPath := filepath.Join(dir, "docs.idx")
	writeIndexFile(t, idxPath, buildIndex(t, testDocs...))
	load := func() (*index.Index, error) {
		f, err := os.Open(idxPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return index.Read(f)
	}
	first, err := load()
	if err != nil {
		t.Fatal(err)
	}
	s := New(first, Config{Logger: quiet})
	s.SetLoader(load)

	// Corrupt one payload byte on disk.
	raw, err := os.ReadFile(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(idxPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	err = s.Reload()
	if !errors.Is(err, core.ErrChecksum) {
		t.Fatalf("reload of corrupt file = %v, want ErrChecksum", err)
	}
	if s.Index() != first {
		t.Fatal("corrupt reload replaced the served index")
	}
	// Queries still work on the retained snapshot.
	docs, err := s.Index().Conjunctive("compressed", "bitmap")
	if err != nil || len(docs) != 1 {
		t.Fatalf("post-rollback query = %v, %v", docs, err)
	}
}
