package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/index"
)

// writeBVIX3File persists idx and returns the path, for loaders that
// exercise the mmap-backed open path.
func writeBVIX3File(t testing.TB, dir string, n int, idx *index.Index) string {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("gen%d.bvix3", n))
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
	return path
}

// TestReloadStormClosesSupersededSnapshots is the retire-after-drain
// proof for the snapshot lifecycle: a storm of queries races many hot
// reloads of mmap-backed indexes, and every superseded generation must
// end with refcount zero and its Close run exactly once — the mapping
// leak hot reload used to carry is gone. Run with -race.
func TestReloadStormClosesSupersededSnapshots(t *testing.T) {
	const reloads = 20
	dir := t.TempDir()

	var closes atomic.Int64
	var loads atomic.Int64
	loader := func() (*index.Index, error) {
		n := loads.Add(1)
		docs := append(append([]string{}, testDocs...), fmt.Sprintf("generation %d marker", n))
		path := writeBVIX3File(t, dir, int(n), buildIndex(t, docs...))
		idx, err := index.OpenFile(path)
		if err != nil {
			return nil, err
		}
		idx.OnClose(func() { closes.Add(1) })
		return idx, nil
	}

	s := newTestServer(t, Config{MaxInFlight: 256})
	s.SetLoader(loader)
	h := s.Handler()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=compressed+bitmap&mode=or", nil))
				if rec.Code != http.StatusOK {
					t.Errorf("storm query status = %d", rec.Code)
					return
				}
				var body struct{ Matches int }
				if err := json.NewDecoder(rec.Body).Decode(&body); err != nil {
					t.Errorf("storm query body: %v", err)
					return
				}
				if body.Matches == 0 {
					t.Error("storm query matched nothing")
					return
				}
			}
		}()
	}

	superseded := make([]*index.Snapshot, 0, reloads)
	for i := 0; i < reloads; i++ {
		superseded = append(superseded, s.Snapshot())
		if err := s.Reload(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	for i, snap := range superseded {
		if !snap.Closed() {
			t.Errorf("superseded snapshot %d not closed after drain (refs=%d)", i, snap.Refs())
			continue
		}
		if got := snap.Refs(); got != 0 {
			t.Errorf("superseded snapshot %d refs = %d, want 0", i, got)
		}
		if err := snap.CloseErr(); err != nil {
			t.Errorf("superseded snapshot %d close error: %v", i, err)
		}
	}
	if got := closes.Load(); got != reloads-1 {
		// The first loader index supersedes the built-in seed (which has
		// no counter); of the `reloads` counted indexes, all but the
		// still-current last one must have closed exactly once.
		t.Errorf("OnClose ran %d times, want %d", got, reloads-1)
	}
	cur := s.Snapshot()
	if cur.Closed() || cur.Refs() < 1 {
		t.Fatalf("current snapshot unhealthy: closed=%v refs=%d", cur.Closed(), cur.Refs())
	}
	if got := s.Index().Terms(); got == 0 {
		t.Fatalf("current index serves no terms")
	}
}

// TestHealthzReportsDegradedIndex: a server handed a degraded index
// surfaces the quarantine summary on /healthz.
func TestHealthzReportsDegradedIndex(t *testing.T) {
	idx := buildIndex(t, testDocs...)
	path := writeBVIX3File(t, t.TempDir(), 0, idx)
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a byte inside the frames section (its offset lives at
	// header byte 44); frames are rebuilt, so nothing is quarantined
	// but the index reports degraded.
	framesOff := int(file[44]) | int(file[45])<<8 // offsets are tiny here
	file[framesOff+1] ^= 0x10
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	deg, err := index.OpenFileDegraded(path)
	if err != nil {
		t.Fatal(err)
	}
	if !deg.Health().Degraded {
		t.Fatal("test setup: index did not open degraded")
	}
	s := New(deg, Config{Logger: quiet})
	rec, body := get(t, s.Handler(), "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded healthz status = %d, want 200", rec.Code)
	}
	if body["status"] != "degraded" {
		t.Fatalf("degraded healthz body = %v", body)
	}
	secs, ok := body["quarantinedSections"].([]interface{})
	if !ok || len(secs) != 1 || secs[0] != "frames" {
		t.Fatalf("quarantinedSections = %v", body["quarantinedSections"])
	}

	// A healthy index keeps the plain liveness shape.
	ok2 := newTestServer(t, Config{})
	rec2, body2 := get(t, ok2.Handler(), "/healthz")
	if rec2.Code != http.StatusOK || body2["status"] != "ok" {
		t.Fatalf("healthy healthz = %d %v", rec2.Code, body2)
	}
}
