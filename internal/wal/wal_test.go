package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/faultio"
)

func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf("record-%04d-%s", i, bytes.Repeat([]byte{byte(i)}, i%97)))
	}
	return recs
}

func TestAppendReplayRoundtrip(t *testing.T) {
	for _, window := range []time.Duration{0, 2 * time.Millisecond} {
		t.Run(fmt.Sprintf("window=%v", window), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, replayed, err := Open(path, Options{SyncEvery: window})
			if err != nil {
				t.Fatal(err)
			}
			if len(replayed) != 0 {
				t.Fatalf("fresh log replayed %d records", len(replayed))
			}
			want := testRecords(50)
			for _, r := range want {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if l.Pending() != 0 {
				t.Fatalf("acked appends left %d pending bytes", l.Pending())
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, got, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("record %d mismatch", i)
				}
			}
		})
	}
}

// TestGroupCommitShares appends from 32 goroutines into one commit
// window and requires replay to return exactly what was appended: every
// record once, byte for byte, in whatever order the appenders interleaved.
func TestGroupCommitShares(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	want := testRecords(32)
	var wg sync.WaitGroup
	for _, r := range want {
		wg.Add(1)
		go func(r []byte) {
			defer wg.Done()
			if err := l.Append(r); err != nil {
				t.Error(err)
			}
		}(r)
	}
	wg.Wait()
	recs, err := Replay(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	missing := make(map[string]bool, len(want))
	for _, r := range want {
		missing[string(r)] = true
	}
	for _, r := range recs {
		if !missing[string(r)] {
			t.Fatalf("replayed record %q was not appended, or came back twice", r)
		}
		delete(missing, string(r))
	}
}

// TestTornTailTruncated writes a clean log, appends garbage half-frames
// of several shapes, and requires Open to replay exactly the clean
// prefix and physically truncate the tail.
func TestTornTailTruncated(t *testing.T) {
	tails := map[string][]byte{
		"short-header":    {0x03, 0x00},
		"length-past-eof": {0xff, 0x00, 0x00, 0x00, 0x11, 0x22, 0x33, 0x44, 'x'},
		"absurd-length":   {0xff, 0xff, 0xff, 0xff, 0x11, 0x22, 0x33, 0x44},
		"bad-crc":         {0x01, 0x00, 0x00, 0x00, 0xde, 0xad, 0xbe, 0xef, 'z'},
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			l, _, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := testRecords(7)
			for _, r := range want {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(tail); err != nil {
				t.Fatal(err)
			}
			f.Close()
			dirty, _ := os.ReadFile(path)
			l2, got, err := Open(path, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("replayed %d records, want %d", len(got), len(want))
			}
			clean, _ := os.ReadFile(path)
			if len(clean) != len(dirty)-len(tail) {
				t.Fatalf("torn tail not truncated: %d bytes on disk, want %d", len(clean), len(dirty)-len(tail))
			}
			// The truncated log must accept appends again.
			if err := l2.Append([]byte("after-recovery")); err != nil {
				t.Fatal(err)
			}
			l2.Close()
			recs, err := Replay(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) != len(want)+1 || string(recs[len(recs)-1]) != "after-recovery" {
				t.Fatalf("post-recovery append not replayed (got %d records)", len(recs))
			}
		})
	}
}

// TestTornWriteMatrix tears the frame write at every interesting byte
// offset via faultio and requires replay to recover exactly the records
// acked before the tear — never a partial record.
func TestTornWriteMatrix(t *testing.T) {
	probe := testRecords(5)
	frameLen := headerSize + len(probe[3])
	for _, torn := range []int{0, 1, 4, headerSize, headerSize + 1, frameLen / 2, frameLen - 1} {
		t.Run(fmt.Sprintf("torn=%d", torn), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			inj := faultio.NewInjector(faultio.OS, faultio.Fault{
				Op: faultio.OpWrite, N: 4, Mode: faultio.ModeTorn, TornBytes: torn, Kill: true,
			})
			l, _, err := Open(path, Options{FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			acked := 0
			for _, r := range probe {
				if err := l.Append(r); err != nil {
					break
				}
				acked++
			}
			if acked != 3 {
				t.Fatalf("acked %d records, want 3 (fault on 4th write)", acked)
			}
			got, err := Replay(nil, path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) < acked {
				t.Fatalf("lost acked records: replayed %d, acked %d", len(got), acked)
			}
			for i := 0; i < acked; i++ {
				if !bytes.Equal(got[i], probe[i]) {
					t.Fatalf("acked record %d corrupted on replay", i)
				}
			}
			// Anything beyond the acked prefix must still be a byte-exact
			// record that was actually submitted, never a hybrid.
			for i := acked; i < len(got); i++ {
				if !bytes.Equal(got[i], probe[i]) {
					t.Fatalf("replay resurrected a record that was never fully written: %q", got[i])
				}
			}
		})
	}
}

// TestKillAtEveryOp drives an append workload through faultio kill
// points at every operation index and asserts the acked prefix is
// always recoverable.
func TestKillAtEveryOp(t *testing.T) {
	records := testRecords(6)
	trace, err := faultio.Record(faultio.OS, func(fsys faultio.FS) error {
		dir := t.TempDir()
		l, _, err := Open(filepath.Join(dir, "wal.log"), Options{FS: fsys})
		if err != nil {
			return err
		}
		for _, r := range records {
			if err := l.Append(r); err != nil {
				return err
			}
		}
		return l.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= len(trace); n++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		inj := faultio.NewInjector(faultio.OS, faultio.Fault{Op: faultio.OpAny, N: n, Kill: true})
		acked := 0
		l, _, err := Open(path, Options{FS: inj})
		if err == nil {
			for _, r := range records {
				if err := l.Append(r); err != nil {
					break
				}
				acked++
			}
			l.Close()
		}
		got, err := Replay(nil, path)
		if err != nil {
			t.Fatalf("kill=%d: replay failed: %v", n, err)
		}
		if len(got) < acked {
			t.Fatalf("kill=%d: lost acked records: replayed %d, acked %d", n, len(got), acked)
		}
		for i := range got {
			if i < len(records) && !bytes.Equal(got[i], records[i]) {
				t.Fatalf("kill=%d: record %d corrupted", n, i)
			}
		}
	}
}

func TestBrokenLogStaysBroken(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	inj := faultio.NewInjector(faultio.OS, faultio.Fault{Op: faultio.OpSync, N: 2, Kill: true})
	l, _, err := Open(path, Options{FS: inj})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := l.Append([]byte("two")); err == nil {
		t.Fatal("append after failed sync did not error")
	}
	if err := l.Append([]byte("three")); err == nil {
		t.Fatal("broken log accepted another append")
	}
	// Close must not claim durability for the unacked tail: it reports
	// the error that bricked the log, and the dead process's close.
	if err := l.Close(); !errors.Is(err, faultio.ErrKilled) || !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Close on a bricked log = %v, want the sync fault and the kill", err)
	}
}

// gateFS is a faultio.FS whose files keep writes in memory until Sync,
// like a page cache a power cut drops: only bytes a completed Sync
// covered ever reach the real file. Every Sync first reports itself on
// entered, then blocks until gate is closed; the first one fails with
// failFirst when that is set, and a failed Sync discards every pending
// byte. The counters let a test check what each ack was covered by.
type gateFS struct {
	faultio.FS
	entered   chan struct{}
	gate      chan struct{}
	failFirst error

	mu           sync.Mutex
	syncs        int   // Sync calls
	durable      int64 // bytes persisted by completed Syncs
	inSync       int   // Syncs in flight
	closedInSync bool  // a Close ran while a Sync was in flight
}

func newGateFS() *gateFS {
	// entered holds more reports than any test issues Syncs, so a Sync
	// never blocks on reporting itself.
	return &gateFS{FS: faultio.OS, entered: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gateFS) OpenAppend(path string) (faultio.File, error) {
	f, err := g.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: g}, nil
}

func (g *gateFS) durableBytes() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.durable
}

func (g *gateFS) syncCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.syncs
}

type gateFile struct {
	faultio.File
	fs      *gateFS
	pending []byte
}

func (f *gateFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.pending = append(f.pending, p...)
	return len(p), nil
}

func (f *gateFile) Sync() error {
	g := f.fs
	g.mu.Lock()
	g.syncs++
	first := g.syncs == 1
	g.inSync++
	covered := len(f.pending) // a sync covers what was written before it
	gate := g.gate
	g.mu.Unlock()
	g.entered <- struct{}{}
	<-gate
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inSync--
	if first && g.failFirst != nil {
		f.pending = nil
		return g.failFirst
	}
	if _, err := f.File.Write(f.pending[:covered]); err != nil {
		return err
	}
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.pending = f.pending[covered:]
	g.durable += int64(covered)
	return nil
}

func (f *gateFile) Close() error {
	f.fs.mu.Lock()
	if f.fs.inSync > 0 {
		f.fs.closedInSync = true
	}
	f.fs.mu.Unlock()
	return f.File.Close()
}

// startLeader appends rec on its own goroutine and returns once that
// append is the leader, blocked inside its fsync; the append's result
// arrives on the returned channel.
func startLeader(t *testing.T, l *Log, g *gateFS, rec []byte) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- l.Append(rec) }()
	<-g.entered
	return done
}

// waitForSize blocks until every enqueued frame has been written. It
// only ever tries the log's lock, so a leader that wrongly holds it
// across its fsync fails the test instead of hanging it.
func waitForSize(t *testing.T, l *Log, size int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if l.mu.TryLock() {
			n := l.size
			l.mu.Unlock()
			if n >= size {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never reached %d bytes while the leader synced", size)
		}
		time.Sleep(time.Millisecond)
	}
}

func framesSize(recs [][]byte) int64 {
	n := int64(0)
	for _, r := range recs {
		n += int64(headerSize + len(r))
	}
	return n
}

// TestLeaderGroupCommitExact makes the grouping deterministic: appender
// 1 leads and blocks inside its fsync, 31 more appenders write their
// records and wait, then the fsync is released. Exactly one more fsync
// must cover all 31 — 2 fsyncs for 32 appends — and no append may
// return before a completed fsync covered its record's end offset.
func TestLeaderGroupCommitExact(t *testing.T) {
	g := newGateFS()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(32)
	leader := startLeader(t, l, g, recs[0])
	errs := make(chan error, len(recs)-1)
	for _, r := range recs[1:] {
		go func(r []byte) {
			c := l.Enqueue(r)
			if err := c.Wait(); err != nil {
				errs <- err
				return
			}
			if d := g.durableBytes(); d < c.end {
				errs <- fmt.Errorf("append acked at offset %d with only %d bytes synced", c.end, d)
				return
			}
			errs <- nil
		}(r)
	}
	waitForSize(t, l, framesSize(recs))
	close(g.gate)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	for range recs[1:] {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if n := g.syncCount(); n != 2 {
		t.Fatalf("%d fsyncs for %d appends, want exactly 2", n, len(recs))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := g.syncCount(); n != 2 {
		t.Fatalf("Close of a fully synced log issued another fsync (%d total)", n)
	}
	got, err := Replay(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("replayed %d records, want %d", len(got), len(recs))
	}
}

// TestLeaderCloseWaitsForSync issues Close while the leader is blocked
// inside its fsync: Close must wait for that fsync before closing the
// file, and the leader's append must still be acked.
func TestLeaderCloseWaitsForSync(t *testing.T) {
	g := newGateFS()
	l, _, err := Open(filepath.Join(t.TempDir(), "wal.log"), Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	leader := startLeader(t, l, g, []byte("leader"))
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	// Close marks the log closed before it waits; once that is visible
	// it is parked behind the leader.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if l.mu.TryLock() {
			c := l.closed
			l.mu.Unlock()
			if c {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("Close never got past the log's lock while the leader synced")
		}
	}
	if err := l.Append([]byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append to a closing log = %v, want ErrClosed", err)
	}
	close(g.gate)
	if err := <-leader; err != nil {
		t.Fatalf("leader append: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	g.mu.Lock()
	closedInSync := g.closedInSync
	g.mu.Unlock()
	if closedInSync {
		t.Fatal("Close closed the file while the leader's fsync was in flight")
	}
}

// TestLeaderSyncFailureReachesEveryWaiter fails the leader's fsync while
// N followers wait on it: the leader and every follower get the error,
// the log stays bricked, and — with unsynced writes lost as a power cut
// loses them — replay holds exactly the acked records.
func TestLeaderSyncFailureReachesEveryWaiter(t *testing.T) {
	g := newGateFS()
	path := filepath.Join(t.TempDir(), "wal.log")
	l, _, err := Open(path, Options{FS: g})
	if err != nil {
		t.Fatal(err)
	}
	recs := testRecords(12)
	acked := recs[:3]
	// Three clean appends first through an open gate, then re-arm it
	// with its next Sync failing.
	close(g.gate)
	for _, r := range acked {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	for len(g.entered) > 0 {
		<-g.entered
	}
	g.mu.Lock()
	g.gate = make(chan struct{})
	g.syncs = 0
	g.failFirst = faultio.ErrInjected
	g.mu.Unlock()

	leader := startLeader(t, l, g, recs[3])
	followers := recs[4:]
	errs := make(chan error, len(followers))
	for _, r := range followers {
		go func(r []byte) { errs <- l.Append(r) }(r)
	}
	waitForSize(t, l, framesSize(recs))
	close(g.gate)
	if err := <-leader; !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("leader append = %v, want the sync fault", err)
	}
	for range followers {
		if err := <-errs; !errors.Is(err, faultio.ErrInjected) {
			t.Fatalf("follower append = %v, want the leader's sync fault", err)
		}
	}
	if err := l.Append([]byte("after")); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("append to a bricked log = %v, want the sync fault", err)
	}
	if err := l.Sync(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Sync of a bricked log = %v, want the sync fault", err)
	}
	if err := l.Close(); !errors.Is(err, faultio.ErrInjected) {
		t.Fatalf("Close of a bricked log = %v, want the sync fault", err)
	}
	got, err := Replay(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(acked) {
		t.Fatalf("replayed %d records, want exactly the %d acked", len(got), len(acked))
	}
	for i := range acked {
		if !bytes.Equal(got[i], acked[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}
