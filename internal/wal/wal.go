// Package wal is the append-only write-ahead log under the live index:
// the durability primitive that lets bvserve acknowledge an ingest or a
// delete before the document ever reaches a sealed BVIX3 segment.
//
// On-disk format. A log is a flat sequence of records, each
//
//	[u32 payload length][u32 CRC-32C of payload][payload bytes]
//
// little-endian, CRC-32C (Castagnoli) — the same polynomial the BVIX3
// container uses. The payload is opaque to this package; the live index
// layers its add/delete encoding on top. There is no file header: an
// empty file is a valid empty log, which is what crash-during-create
// leaves behind.
//
// Durability contract. Append returns only after the fsync that covers
// the record has completed — an acked record survives SIGKILL and power
// loss. Commit is leader-based: the first appender to wait while no
// fsync is in flight becomes the leader, notes the log's current end,
// and syncs outside every lock; appenders that arrive meanwhile wait
// for it and then share the next fsync, which covers everything queued
// by the time it starts. A lone appender therefore syncs at once, and
// any number of appenders arriving during one fsync share the next.
// Enqueue and Commit.Wait split the two phases so a caller can
// serialize record order under its own lock without serializing the
// sync. A failed write or sync permanently bricks the log: every waiter
// it covered and every subsequent operation returns the original error,
// because a log whose tail state is unknown must not accept more
// records.
//
// Replay contract. Replay scans records in order and stops at the first
// frame that does not parse: short header, absurd length, length past
// EOF, or CRC mismatch. Everything before the bad frame is returned;
// everything from it on is a torn tail — the residue of a crash between
// write and sync — and Open truncates it (atomically, via rewrite +
// rename + dir fsync) so the next append cannot splice a new record
// onto garbage. Replay therefore returns a prefix of what was appended:
// at least every acked record (they were fully written and synced
// before the ack) and at most a few trailing unacked ones whose frames
// happened to land intact. No record is ever half-applied: a frame
// either round-trips its CRC or is discarded whole.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/faultio"
)

const (
	headerSize = 8
	// MaxRecord bounds a single payload; a length field above it means
	// the frame is garbage, not a record we failed to buffer.
	MaxRecord = 1 << 26
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Options tunes a Log.
type Options struct {
	// FS is the file-system seam; nil means faultio.OS.
	FS faultio.FS
	// SyncEvery was the group-commit window.
	//
	// Deprecated: ignored; every log group-commits.
	SyncEvery time.Duration
}

// Log is an open write-ahead log. Appends are safe for concurrent use.
type Log struct {
	path string

	mu      sync.Mutex
	cond    *sync.Cond // on mu; broadcast when a leader's fsync returns
	f       faultio.File
	size    int64 // durable + buffered bytes written so far
	synced  int64 // bytes covered by a completed fsync
	syncing bool  // a leader's fsync is in flight
	broken  error // first write/sync error; poisons the log
	closed  bool
}

// Commit is one enqueued record's handle: Wait blocks until an fsync
// covering the record's end offset has completed (or the log broke)
// and returns the error, if any.
type Commit struct {
	l   *Log
	end int64 // log offset just past the record
	err error // resolved at Enqueue: closed, broken, or a failed write
}

// Wait blocks until the record is durable.
func (c Commit) Wait() error {
	if c.err != nil {
		return c.err
	}
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	return c.l.syncToLocked(c.end)
}

// Open replays the log at path, truncates any torn tail, and opens it
// for appending. The replayed payloads are returned in append order.
// A missing file is an empty log — Open creates it.
func Open(path string, opts Options) (*Log, [][]byte, error) {
	if opts.FS == nil {
		opts.FS = faultio.OS
	}
	recs, valid, total, err := scan(opts.FS, path)
	if err != nil {
		return nil, nil, err
	}
	if valid < total {
		// Torn tail: rewrite the valid prefix and atomically swap it in,
		// so the appender never splices fresh records onto garbage.
		if err := truncateTo(opts.FS, path, valid); err != nil {
			return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", path, err)
		}
	}
	f, err := opts.FS.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{path: path, f: f, size: valid, synced: valid}
	l.cond = sync.NewCond(&l.mu)
	return l, recs, nil
}

// Replay reads the log at path without opening it for append, returning
// the payloads of every intact record in order. A missing file is an
// empty log. The torn tail, if any, is left on disk untouched.
func Replay(fsys faultio.FS, path string) ([][]byte, error) {
	if fsys == nil {
		fsys = faultio.OS
	}
	recs, _, _, err := scan(fsys, path)
	return recs, err
}

// scan reads the whole file and parses records until the first bad
// frame. It returns the intact payloads, the byte length of the valid
// prefix, and the total file length. A missing file scans as empty.
func scan(fsys faultio.FS, path string) (recs [][]byte, valid, total int64, err error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, fmt.Errorf("wal: read %s: %w", path, err)
	}
	total = int64(len(data))
	off := 0
	for {
		if len(data)-off < headerSize {
			break // short header: torn tail (or clean EOF at off == len)
		}
		n := binary.LittleEndian.Uint32(data[off:])
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > MaxRecord || int(n) > len(data)-off-headerSize {
			break // absurd or past-EOF length: torn tail
		}
		payload := data[off+headerSize : off+headerSize+int(n)]
		if crc32.Checksum(payload, castagnoli) != sum {
			break // bit rot or torn mid-payload
		}
		recs = append(recs, append([]byte(nil), payload...))
		off += headerSize + int(n)
	}
	return recs, int64(off), total, nil
}

// truncateTo rewrites the first n bytes of path and renames the copy
// over the original — the faultio.FS surface has no Truncate, and the
// rewrite keeps the swap atomic on top of the same rename discipline
// WriteFile uses.
func truncateTo(fsys faultio.FS, path string, n int64) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return err
	}
	if int64(len(data)) < n {
		return fmt.Errorf("file shrank under truncate: %d < %d", len(data), n)
	}
	tmp := path + ".trunc"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data[:n]); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	return fsys.SyncDir(filepath.Dir(path))
}

// Append writes one record and blocks until it is durable. Equivalent
// to Enqueue(payload).Wait().
func (l *Log) Append(payload []byte) error {
	return l.Enqueue(payload).Wait()
}

// Enqueue writes one record and returns its commit handle; the record
// is durable once Wait returns nil. Callers that need record order to
// match an externally-locked application order call Enqueue under their
// lock and Wait outside it.
func (l *Log) Enqueue(payload []byte) Commit {
	frame := make([]byte, headerSize+len(payload))
	binary.LittleEndian.PutUint32(frame, uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.Checksum(payload, castagnoli))
	copy(frame[headerSize:], payload)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return Commit{err: l.broken}
	}
	if l.closed {
		return Commit{err: ErrClosed}
	}
	if _, err := l.f.Write(frame); err != nil {
		l.broken = fmt.Errorf("wal: append %s: %w", l.path, err)
		return Commit{err: l.broken}
	}
	l.size += int64(len(frame))
	return Commit{l: l, end: l.size}
}

// syncToLocked returns once a completed fsync covers offset end, or
// with the error that bricked the log first. The caller holds l.mu.
// With no fsync in flight the caller becomes the leader: it notes the
// current end of the log, syncs with l.mu released so appenders keep
// writing, and wakes everyone waiting when the sync returns. Otherwise
// it waits for the leader and checks again — a record written during
// one sync is covered by the next.
func (l *Log) syncToLocked(end int64) error {
	for l.synced < end {
		if l.broken != nil {
			return l.broken
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		target := l.size
		l.syncing = true
		l.mu.Unlock()
		err := l.f.Sync()
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			if l.broken == nil {
				l.broken = fmt.Errorf("wal: sync %s: %w", l.path, err)
			}
		} else {
			l.synced = target
		}
		l.cond.Broadcast()
	}
	return nil
}

// Sync returns once everything written so far is durable — the seal
// path calls it before rotating logs.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	if l.closed {
		return ErrClosed
	}
	return l.syncToLocked(l.size)
}

// Size reports the log's byte length including any not-yet-synced tail.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Pending reports bytes written but not yet covered by an fsync — the
// /stats "WAL bytes pending" gauge.
func (l *Log) Pending() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size - l.synced
}

// Path reports the log's file path.
func (l *Log) Path() string { return l.path }

// Close waits for an in-flight leader, syncs the tail, and closes the
// file. Safe to call more than once; only the first call does work, and
// the log is unusable afterward. On a bricked log it returns the error
// that bricked it (joined with any close error): the tail never became
// durable.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	err := l.broken
	if err == nil {
		err = l.syncToLocked(l.size)
	}
	for l.syncing {
		l.cond.Wait()
	}
	return errors.Join(err, l.f.Close())
}
