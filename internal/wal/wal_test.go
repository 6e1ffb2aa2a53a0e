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
	if !errors.Is(l.Close(), faultio.ErrKilled) && l.Close() == nil {
		// Close reports the underlying close failure; it must not claim
		// durability for the unacked records either way.
		t.Log("close error tolerated")
	}
}
