package index

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultio"
	"repro/internal/ops"
	"repro/internal/wal"
)

// Live is the multi-segment live index: an LSM-style composition of
// one mutable MemSegment (WAL-backed), zero or more sealed immutable
// BVIX3 segments, and a tombstone overlay for deletions of sealed
// documents. Every mutation is acknowledged only after its WAL record
// is fsynced; sealing flushes the mutable segment through the sharded
// Builder into a BVIX3 file and publishes it via the checksummed
// segment manifest; a compactor merges sealed segments — applying
// tombstones — and retires the inputs through the refcounted Snapshot
// machinery. Queries scatter across all segments with deletions masked
// and return exactly what a from-scratch index over the surviving
// documents would (the CheckLiveIndex oracle pairing and the recovery
// matrix enforce this).
//
// Epoch discipline (what makes delete-then-re-add safe): the mutable
// segment carries epoch E, incremented at every seal; a sealed segment
// keeps the epoch it was mutable under. Deleting a sealed document
// records a tombstone with bound E-1, which masks every segment with
// epoch <= E-1 — every copy sealed so far — while a later re-add of
// the same docid lands in the mutable segment and seals at an epoch
// above the bound, so the old tombstone cannot shadow it. Deletes of
// documents still in the mutable segment are physical removals, so
// tombstones never target the mutable segment at all.
//
// Locking: mu guards all index state; queries hold it shared for their
// whole evaluation, swaps (seal commit, compact commit) hold it
// exclusive — which is why retiring an input snapshot after a swap
// cannot race a reader. flushMu serializes seal and compaction.
type Live struct {
	dir  string
	fsys faultio.FS
	opts LiveOptions

	mu          sync.RWMutex
	wal         *wal.Log
	mem         *MemSegment
	frozen      *MemSegment // mem being sealed; queries still see it
	frozenEpoch int
	sealed      []*sealedSeg
	tombBounds  map[uint32]int // deleted docid -> epoch bound
	tombSorted  []uint32       // the same docids, ascending (the mask)
	epoch       int
	nextDoc     uint32
	walSeq      int
	walFloor    int
	segSeq      int
	broken      error
	closed      bool
	sealing     bool // an auto-seal goroutine is scheduled/running

	seals       int64
	compactions int64
	lastSeal    time.Time
	lastCompact time.Time

	flushMu sync.Mutex
}

// LiveOptions tunes OpenLive.
type LiveOptions struct {
	// FS is the file-system seam for every write-path operation; nil
	// means faultio.OS. (Sealed segments are still mmapped through the
	// real OS — fault injection targets the write path.)
	FS faultio.FS
	// SealDocs, when positive, auto-seals the mutable segment once it
	// holds that many documents. Zero means seal only on demand.
	SealDocs int
	// CompactSegments, when positive, triggers a compaction whenever an
	// auto-seal leaves at least that many sealed segments. Zero means
	// compact only on demand.
	CompactSegments int
	// Codec fixes the segment codec; nil uses the adaptive selector.
	Codec core.Codec
}

// sealedSeg is one immutable segment.
type sealedSeg struct {
	file        string
	epoch       int
	ranges      idRanges
	snap        *Snapshot // nil when quarantined
	quarantined bool
}

// WAL record encoding: one op byte then the op payload.
const (
	walOpAdd    = 'A' // u32 docid, then the document text
	walOpDelete = 'D' // u32 docid
)

func encodeAdd(doc uint32, text string) []byte {
	rec := make([]byte, 5+len(text))
	rec[0] = walOpAdd
	putU32(rec[1:], doc)
	copy(rec[5:], text)
	return rec
}

func encodeDelete(doc uint32) []byte {
	rec := make([]byte, 5)
	rec[0] = walOpDelete
	putU32(rec[1:], doc)
	return rec
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func walName(seq int) string { return fmt.Sprintf("wal-%06d.log", seq) }
func segName(seq int) string { return fmt.Sprintf("seg-%06d.bvix", seq) }

// ErrNoSuchDoc is returned by Delete for a document that is not
// currently visible.
var ErrNoSuchDoc = errors.New("index: no such live document")

// ErrDocVisible is returned by Reinsert when the docid is still
// visible (it must be deleted before it can be re-added).
var ErrDocVisible = errors.New("index: docid still visible")

// OpenLive opens (or initializes) the live index rooted at dir:
// loads the manifest, opens every sealed segment (quarantining ones
// that fail even a degraded open), replays the WAL window into a fresh
// mutable segment — truncating any torn tail — and opens the active
// log for appending.
func OpenLive(dir string, opts LiveOptions) (*Live, error) {
	if opts.FS == nil {
		opts.FS = faultio.OS
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("index: live dir: %w", err)
	}
	l := &Live{
		dir: dir, fsys: opts.FS, opts: opts,
		mem: NewMemSegment(), tombBounds: map[uint32]int{},
	}
	m, ok, err := readManifest(l.fsys, dir)
	if err != nil {
		return nil, err
	}
	if ok {
		l.nextDoc = m.NextDoc
		l.walFloor = m.WALFloor
		l.walSeq = m.WALSeq
		l.segSeq = m.SegSeq
		l.epoch = m.Epoch
		if l.tombBounds, err = m.decodeTombs(); err != nil {
			return nil, err
		}
		for _, sm := range m.Segments {
			seg := &sealedSeg{file: sm.File, epoch: sm.Epoch, ranges: rangesFromMeta(sm.DocMap)}
			path := filepath.Join(dir, sm.File)
			idx, oerr := OpenFile(path)
			if oerr != nil {
				idx, oerr = OpenFileDegraded(path)
			}
			if oerr != nil {
				// Quarantined: the manifest knows the segment's docids,
				// so visibility bookkeeping still works; queries skip it
				// and Health reports degraded.
				seg.quarantined = true
			} else {
				seg.snap = NewSnapshot(idx)
			}
			l.sealed = append(l.sealed, seg)
			if hi, ok := seg.ranges.maxGlobal(); ok && hi >= l.nextDoc {
				l.nextDoc = hi + 1
			}
		}
	}
	l.rebuildTombSorted()

	// Replay the WAL window: every log from the floor up, in order. The
	// highest-numbered log on disk is the active one; logs below it are
	// sealed history whose records are already reflected in segments
	// (replay skips them idempotently) or belong to the mutable state.
	last := l.walFloor
	for seq := l.walFloor + 1; ; seq++ {
		if _, err := l.fsys.ReadFile(filepath.Join(dir, walName(seq))); err != nil {
			if errors.Is(err, os.ErrNotExist) {
				break
			}
			return nil, fmt.Errorf("index: probing %s: %w", walName(seq), err)
		}
		last = seq
	}
	for seq := l.walFloor; seq < last; seq++ {
		recs, rerr := wal.Replay(l.fsys, filepath.Join(dir, walName(seq)))
		if rerr != nil {
			return nil, rerr
		}
		for _, rec := range recs {
			l.applyRecord(rec)
		}
	}
	log, recs, err := wal.Open(filepath.Join(dir, walName(last)), wal.Options{FS: l.fsys})
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		l.applyRecord(rec)
	}
	l.wal = log
	l.walSeq = last
	return l, nil
}

// applyRecord applies one replayed WAL record idempotently: an add is
// skipped when the docid is already visible (its segment outlived the
// log), a delete is skipped when the docid already is not. Malformed
// records — possible only in an intact-CRC frame written by a newer
// version — are ignored rather than guessed at.
func (l *Live) applyRecord(rec []byte) {
	if len(rec) < 5 {
		return
	}
	doc := getU32(rec[1:])
	switch rec[0] {
	case walOpAdd:
		if l.visibleLocked(doc) {
			return
		}
		l.mem.Add(doc, string(rec[5:]))
		if doc >= l.nextDoc {
			l.nextDoc = doc + 1
		}
	case walOpDelete:
		if !l.visibleLocked(doc) {
			return
		}
		if l.mem.Has(doc) {
			l.mem.Remove(doc)
			return
		}
		l.tombBounds[doc] = l.epoch - 1
		l.rebuildTombSorted()
	}
}

// visibleLocked reports whether doc is currently visible: live in the
// mutable (or frozen) segment, or present in a sealed segment and not
// masked by a tombstone. Quarantined segments count — their documents
// exist even if they cannot be served. Caller holds mu (any mode).
func (l *Live) visibleLocked(doc uint32) bool {
	if l.mem.Has(doc) {
		return true
	}
	if l.frozen != nil && l.frozen.Has(doc) {
		return !l.maskedLocked(doc, l.frozenEpoch)
	}
	for _, seg := range l.sealed {
		if seg.ranges.contains(doc) && !l.maskedLocked(doc, seg.epoch) {
			return true
		}
	}
	return false
}

// maskedLocked reports whether a tombstone masks doc for a segment of
// the given epoch.
func (l *Live) maskedLocked(doc uint32, epoch int) bool {
	bound, ok := l.tombBounds[doc]
	return ok && bound >= epoch
}

func (l *Live) rebuildTombSorted() {
	l.tombSorted = l.tombSorted[:0]
	for d := range l.tombBounds {
		l.tombSorted = append(l.tombSorted, d)
	}
	sort.Slice(l.tombSorted, func(i, j int) bool { return l.tombSorted[i] < l.tombSorted[j] })
}

// fail poisons the live index after a WAL ack failure: the in-memory
// state may be ahead of what was acked, so no further mutation is
// accepted (reads stay up — the state is a superset of the truth).
func (l *Live) fail(err error) {
	l.mu.Lock()
	if l.broken == nil {
		l.broken = err
	}
	l.mu.Unlock()
}

// Add indexes text under a fresh docid and returns it once the WAL
// record is durable.
func (l *Live) Add(text string) (uint32, error) {
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return 0, err
	}
	doc := l.nextDoc
	l.nextDoc++
	l.mem.Add(doc, text)
	c := l.wal.Enqueue(encodeAdd(doc, text))
	sealNow := l.shouldSealLocked()
	l.mu.Unlock()
	if err := c.Wait(); err != nil {
		l.fail(err)
		return 0, err
	}
	if sealNow {
		go l.autoFlush()
	}
	return doc, nil
}

// Reinsert re-adds a previously deleted docid with new text. The docid
// must not be currently visible.
func (l *Live) Reinsert(doc uint32, text string) error {
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if doc >= l.nextDoc {
		l.mu.Unlock()
		return fmt.Errorf("index: reinsert docid %d was never assigned (next is %d)", doc, l.nextDoc)
	}
	if l.visibleLocked(doc) {
		l.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrDocVisible, doc)
	}
	l.mem.Add(doc, text)
	c := l.wal.Enqueue(encodeAdd(doc, text))
	sealNow := l.shouldSealLocked()
	l.mu.Unlock()
	if err := c.Wait(); err != nil {
		l.fail(err)
		return err
	}
	if sealNow {
		go l.autoFlush()
	}
	return nil
}

// Delete removes a visible document: physically when it is still in
// the mutable segment, via an epoch-bounded tombstone when it lives in
// a frozen or sealed segment. The ack is durable like Add's.
func (l *Live) Delete(doc uint32) error {
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if !l.visibleLocked(doc) {
		l.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrNoSuchDoc, doc)
	}
	if l.mem.Has(doc) {
		l.mem.Remove(doc)
	} else {
		l.tombBounds[doc] = l.epoch - 1
		l.rebuildTombSorted()
	}
	c := l.wal.Enqueue(encodeDelete(doc))
	l.mu.Unlock()
	if err := c.Wait(); err != nil {
		l.fail(err)
		return err
	}
	return nil
}

func (l *Live) usableLocked() error {
	if l.closed {
		return errors.New("index: live index closed")
	}
	return l.broken
}

func (l *Live) shouldSealLocked() bool {
	if l.opts.SealDocs <= 0 || l.sealing {
		return false
	}
	if l.mem.Docs() < l.opts.SealDocs {
		return false
	}
	l.sealing = true
	return true
}

// autoFlush runs the threshold-triggered seal (and, when the sealed
// count crosses its own threshold, a compaction) in the background.
func (l *Live) autoFlush() {
	defer func() {
		l.mu.Lock()
		l.sealing = false
		l.mu.Unlock()
	}()
	if err := l.Seal(); err != nil {
		return
	}
	if n := l.opts.CompactSegments; n > 0 {
		l.mu.RLock()
		due := len(l.sealed) >= n
		l.mu.RUnlock()
		if due {
			l.Compact()
		}
	}
}

// Seal flushes the mutable segment to a BVIX3 file and publishes it.
// The freeze is immediate (new writes go to a fresh mutable segment
// and a rotated WAL); the build, file write, and manifest publish run
// without blocking readers or writers. An empty mutable segment seals
// to nothing.
func (l *Live) Seal() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	// Phase 1 — freeze. Under the exclusive lock: rotate the WAL so
	// post-freeze writes land in the next log (the old log holds exactly
	// the frozen segment's mutations and stays on disk until the new
	// manifest makes it redundant), swap in a fresh mutable segment, and
	// bump the epoch so deletes issued during the flush mask the frozen
	// copy once sealed.
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		return err
	}
	if l.mem.Docs() == 0 {
		l.mu.Unlock()
		return nil
	}
	if err := l.wal.Sync(); err != nil {
		l.mu.Unlock()
		l.fail(err)
		return err
	}
	newSeq := l.walSeq + 1
	nl, _, err := wal.Open(filepath.Join(l.dir, walName(newSeq)), wal.Options{FS: l.fsys})
	if err != nil {
		l.mu.Unlock()
		return err
	}
	oldWal := l.wal
	oldFloor := l.walFloor
	l.wal = nl
	l.walSeq = newSeq
	frozen := l.mem
	frozenEpoch := l.epoch
	l.frozen, l.frozenEpoch = frozen, frozenEpoch
	l.mem = NewMemSegment()
	l.epoch++
	mySegSeq := l.segSeq
	l.mu.Unlock()

	// Phase 2 — build and write the segment, off-lock. A failure here
	// poisons the index: the WAL is already rotated and the epoch
	// bumped, so there is no clean way back; reads keep serving the
	// frozen segment, writes stop, restart recovers from the old
	// manifest + both logs.
	ids := frozen.SortedDocIDs()
	idx, err := buildSegmentIndex(frozen, ids, l.opts.Codec)
	if err != nil {
		l.fail(err)
		return err
	}
	file := segName(mySegSeq)
	path := filepath.Join(l.dir, file)
	if err := idx.writeFileFS(l.fsys, path, FormatBVIX3); err != nil {
		l.fail(err)
		return err
	}
	opened, err := OpenFile(path)
	if err != nil {
		l.fail(err)
		return err
	}
	seg := &sealedSeg{file: file, epoch: frozenEpoch, ranges: rangesFromIDs(ids), snap: NewSnapshot(opened)}

	// Phase 3 — publish + swap. The manifest rename is the commit
	// point: before it, recovery sees the old manifest and rebuilds the
	// frozen segment from its log; after it, the segment is durable and
	// the old log is garbage.
	l.mu.Lock()
	newSegs := append(append([]*sealedSeg(nil), l.sealed...), seg)
	m := &manifest{
		Version: 1, NextDoc: l.nextDoc,
		WALFloor: l.walSeq, WALSeq: l.walSeq,
		SegSeq: mySegSeq + 1, Epoch: l.epoch,
		Segments: segMetas(newSegs),
	}
	if err := m.encodeTombs(l.tombBounds); err == nil {
		err = writeManifest(l.fsys, l.dir, m)
	} else {
		err = fmt.Errorf("index: seal: %w", err)
	}
	if err != nil {
		l.mu.Unlock()
		seg.snap.Retire()
		l.fail(err)
		return err
	}
	l.sealed = newSegs
	l.segSeq = mySegSeq + 1
	l.walFloor = l.walSeq
	l.frozen = nil
	l.seals++
	l.lastSeal = time.Now()
	l.mu.Unlock()

	// Cleanup — all best-effort: a crash here re-runs it next recovery.
	oldWal.Close()
	for seq := oldFloor; seq < l.walFloor; seq++ {
		l.fsys.Remove(filepath.Join(l.dir, walName(seq)))
	}
	return nil
}

func segMetas(segs []*sealedSeg) []segmentMeta {
	out := make([]segmentMeta, len(segs))
	for i, s := range segs {
		out[i] = segmentMeta{File: s.file, Epoch: s.epoch, DocMap: s.ranges.meta()}
	}
	return out
}

// buildSegmentIndex flushes a mem segment through the sharded Builder:
// documents are fed in ascending global-id order, so the Builder's
// dense insertion-order ids map back to globals through idRanges.
func buildSegmentIndex(m *MemSegment, ids []uint32, codec core.Codec) (*Index, error) {
	var b *Builder
	if codec != nil {
		b = NewBuilder(codec)
	} else {
		b = NewAutoBuilder()
	}
	for _, id := range ids {
		b.AddDocument(m.Text(id))
	}
	return b.Build()
}

// Compact merges every sealed segment into one, dropping tombstoned
// documents, and retires the inputs. Tombstones whose work the merge
// completed are pruned; ones recorded after the merge snapshot keep
// masking the output (their bound is at least the output's epoch).
// Compaction refuses to run while any segment is quarantined — merging
// would silently drop the quarantined documents.
func (l *Live) Compact() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.RLock()
	if err := l.usableLocked(); err != nil {
		l.mu.RUnlock()
		return err
	}
	if len(l.sealed) < 2 {
		l.mu.RUnlock()
		return nil
	}
	inputs := append([]*sealedSeg(nil), l.sealed...)
	tombsSnap := make(map[uint32]int, len(l.tombBounds))
	for d, b := range l.tombBounds {
		tombsSnap[d] = b
	}
	outEpoch := 0
	for _, s := range inputs {
		if s.quarantined {
			l.mu.RUnlock()
			return fmt.Errorf("index: compact: segment %s is quarantined", s.file)
		}
		if s.epoch > outEpoch {
			outEpoch = s.epoch
		}
		s.snap.Acquire()
	}
	mySegSeq := l.segSeq
	l.mu.RUnlock()
	release := func() {
		for _, s := range inputs {
			s.snap.Release()
		}
	}

	// Heavy phase, off-lock against the acquired snapshots: merged terms
	// stream straight into the output's section buffers.
	var bw bvix3Writer
	ranges, err := mergeSealed(inputs, tombsSnap, l.opts.Codec, bw.add)
	release()
	if err != nil {
		return fmt.Errorf("index: compact: %w", err)
	}

	var out *sealedSeg
	if ranges.total() > 0 {
		file := segName(mySegSeq)
		path := filepath.Join(l.dir, file)
		write := func(w io.Writer) (int64, error) { return bw.writeTo(w, ranges.total()) }
		if err := publishFile(l.fsys, path, write); err != nil {
			return fmt.Errorf("index: compact: %w", err)
		}
		opened, err := OpenFile(path)
		if err != nil {
			return fmt.Errorf("index: compact: %w", err)
		}
		out = &sealedSeg{file: file, epoch: outEpoch, ranges: ranges, snap: NewSnapshot(opened)}
	}

	// Commit: publish the manifest naming only the output, prune the
	// tombstones the merge consumed, swap, retire the inputs.
	l.mu.Lock()
	if err := l.usableLocked(); err != nil {
		l.mu.Unlock()
		if out != nil {
			out.snap.Retire()
		}
		return err
	}
	pruned := map[uint32]int{}
	for d, b := range l.tombBounds {
		if sb, ok := tombsSnap[d]; ok && sb == b {
			continue // fully applied by the merge
		}
		pruned[d] = b
	}
	var newSegs []*sealedSeg
	if out != nil {
		newSegs = []*sealedSeg{out}
	}
	m := &manifest{
		Version: 1, NextDoc: l.nextDoc,
		WALFloor: l.walFloor, WALSeq: l.walSeq,
		SegSeq: mySegSeq + 1, Epoch: l.epoch,
		Segments: segMetas(newSegs),
	}
	if err := m.encodeTombs(pruned); err == nil {
		err = writeManifest(l.fsys, l.dir, m)
	} else {
		err = fmt.Errorf("index: compact: %w", err)
	}
	if err != nil {
		l.mu.Unlock()
		if out != nil {
			out.snap.Retire()
		}
		l.fail(err)
		return err
	}
	old := l.sealed
	l.sealed = newSegs
	l.segSeq = mySegSeq + 1
	l.tombBounds = pruned
	l.rebuildTombSorted()
	l.compactions++
	l.lastCompact = time.Now()
	l.mu.Unlock()

	for _, s := range old {
		s.snap.Retire()
		l.fsys.Remove(filepath.Join(l.dir, s.file))
	}
	return nil
}

// Export flushes the mutable segment and merges every sealed segment
// into one standalone in-memory index over the surviving documents,
// docids renumbered densely in ascending global order — the `bvindex
// -from-wal` recovery path. The live directory is left intact (the
// flush publishes a normal seal; no compaction happens on disk).
func (l *Live) Export() (*Index, error) {
	if err := l.Seal(); err != nil {
		return nil, err
	}
	l.flushMu.Lock()
	defer l.flushMu.Unlock()

	l.mu.RLock()
	if err := l.usableLocked(); err != nil {
		l.mu.RUnlock()
		return nil, err
	}
	inputs := append([]*sealedSeg(nil), l.sealed...)
	tombs := make(map[uint32]int, len(l.tombBounds))
	for d, b := range l.tombBounds {
		tombs[d] = b
	}
	for _, s := range inputs {
		if s.quarantined {
			l.mu.RUnlock()
			return nil, fmt.Errorf("index: export: segment %s is quarantined; recover it before exporting", s.file)
		}
		s.snap.Acquire()
	}
	l.mu.RUnlock()
	defer func() {
		for _, s := range inputs {
			s.snap.Release()
		}
	}()

	if len(inputs) == 0 {
		return nil, errors.New("index: export: live index holds no documents")
	}
	terms := map[string]termEntry{}
	ranges, err := mergeSealed(inputs, tombs, l.opts.Codec, func(t string, e termEntry) error {
		terms[t] = e
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("index: export: %w", err)
	}
	if ranges.total() == 0 {
		return nil, errors.New("index: export: every document is deleted; nothing to export")
	}
	return &Index{terms: terms, docs: ranges.total()}, nil
}

// mergeSealed merges the inputs' postings over the surviving documents,
// dropping every copy a tombstone masks, and hands each merged term to
// emit in name order. It streams: a k-way walk over the inputs' mapped
// dicts materializes one term from each input that has it, masks,
// merges, and compresses it, and lets it go before the next term — so
// the merge holds one term's postings at a time, never an input's
// whole vocabulary. Compaction emits into a bvix3Writer, Export into a
// map; the returned ranges map merged local ids back to global ones.
func mergeSealed(inputs []*sealedSeg, tombs map[uint32]int, codec core.Codec, emit func(string, termEntry) error) (idRanges, error) {
	masked := func(doc uint32, epoch int) bool {
		b, ok := tombs[doc]
		return ok && b >= epoch
	}

	// Surviving document universe.
	var survivors []uint32
	for _, s := range inputs {
		for _, g := range s.ranges.allGlobals() {
			if !masked(g, s.epoch) {
				survivors = append(survivors, g)
			}
		}
	}
	sort.Slice(survivors, func(i, j int) bool { return survivors[i] < survivors[j] })
	ranges := rangesFromIDs(survivors)
	if len(survivors) == 0 {
		return ranges, nil
	}

	curs := make([]*dictCursor, len(inputs))
	for i, s := range inputs {
		c, err := newDictCursor(s.snap.Index())
		if err != nil {
			return idRanges{}, fmt.Errorf("segment %s: %w", s.file, err)
		}
		curs[i] = c
	}
	sel := AutoSelector()
	type postings struct {
		docs  []uint32
		freqs []uint16
	}
	for {
		// The next term is the least name any cursor is on.
		t, found := "", false
		for _, c := range curs {
			if !c.done && (!found || c.name < t) {
				t, found = c.name, true
			}
		}
		if !found {
			return ranges, nil
		}
		var parts []postings
		for i, c := range curs {
			if c.done || c.name != t {
				continue
			}
			seg := inputs[i]
			e, err := c.take()
			if err != nil {
				return idRanges{}, fmt.Errorf("segment %s: %w", seg.file, err)
			}
			globals := seg.ranges.globals(e.posting.Decompress())
			docs := make([]uint32, 0, len(globals))
			freqs := make([]uint16, 0, len(globals))
			for k, g := range globals {
				if masked(g, seg.epoch) {
					continue
				}
				docs = append(docs, g)
				var f uint16 = 1
				if k < len(e.freqs) {
					f = e.freqs[k]
				}
				freqs = append(freqs, f)
			}
			if len(docs) > 0 {
				parts = append(parts, postings{docs, freqs})
			}
		}
		if len(parts) == 0 {
			continue
		}
		// K-way merge by global id. After masking, a document survives in
		// at most one input (re-added copies mask their elders), so the
		// streams never collide on a docid.
		n := 0
		for _, p := range parts {
			n += len(p.docs)
		}
		docs := make([]uint32, 0, n)
		freqs := make([]uint16, 0, n)
		idxs := make([]int, len(parts))
		for {
			best := -1
			for i, p := range parts {
				if idxs[i] >= len(p.docs) {
					continue
				}
				if best < 0 || p.docs[idxs[i]] < parts[best].docs[idxs[best]] {
					best = i
				}
			}
			if best < 0 {
				break
			}
			g := parts[best].docs[idxs[best]]
			local, ok := ranges.toLocal(g)
			if !ok {
				return idRanges{}, fmt.Errorf("merged docid %d outside survivor set", g)
			}
			docs = append(docs, local)
			freqs = append(freqs, parts[best].freqs[idxs[best]])
			idxs[best]++
		}
		c := codec
		if c == nil {
			c = sel(docs, len(survivors))
		}
		p, err := c.Compress(docs)
		if err != nil {
			return idRanges{}, fmt.Errorf("term %q: %w", t, err)
		}
		if err := emit(t, termEntry{posting: p, freqs: freqs, codec: c.Name()}); err != nil {
			return idRanges{}, err
		}
	}
}

// maskGlobals filters tombstoned docs out of an ascending global-id
// list for a segment of the given epoch, via a merge walk against the
// sorted tombstone ids. Caller holds mu shared.
func (l *Live) maskGlobals(list []uint32, epoch int) []uint32 {
	if len(l.tombSorted) == 0 || len(list) == 0 {
		return list
	}
	out := list[:0]
	j := 0
	for _, d := range list {
		for j < len(l.tombSorted) && l.tombSorted[j] < d {
			j++
		}
		if j < len(l.tombSorted) && l.tombSorted[j] == d && l.tombBounds[d] >= epoch {
			continue
		}
		out = append(out, d)
	}
	return out
}

// memView is one in-memory query target; memViews lists the frozen
// segment, if any, then the mutable one. Caller holds mu shared.
type memView struct {
	m     *MemSegment
	epoch int
	mask  bool // apply tombstone masking (frozen only)
}

func (l *Live) memViews() []memView {
	var out []memView
	if l.frozen != nil {
		out = append(out, memView{l.frozen, l.frozenEpoch, true})
	}
	out = append(out, memView{l.mem, l.epoch, false})
	return out
}

// Conjunctive answers an AND query across every segment.
func (l *Live) Conjunctive(terms ...string) ([]uint32, error) {
	return l.boolean((*Index).Conjunctive, memConjunctive, terms)
}

// Disjunctive answers an OR query across every segment.
func (l *Live) Disjunctive(terms ...string) ([]uint32, error) {
	return l.boolean((*Index).Disjunctive, memDisjunctive, terms)
}

// boolean evaluates one boolean operator per segment — sealed through
// the segment's index, mutable through mem — masks deletions, and merges
// the per-segment answers. A document is visible in exactly one
// segment, so the union is a disjoint sorted merge.
func (l *Live) boolean(sealed func(*Index, ...string) ([]uint32, error), mem func(*MemSegment, []string) []uint32, terms []string) ([]uint32, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var lists [][]uint32
	for _, seg := range l.sealed {
		if seg.quarantined {
			continue
		}
		local, err := sealed(seg.snap.Index(), terms...)
		if err != nil {
			return nil, err
		}
		if g := l.maskGlobals(seg.ranges.globals(local), seg.epoch); len(g) > 0 {
			lists = append(lists, g)
		}
	}
	for _, v := range l.memViews() {
		g := mem(v.m, terms)
		if v.mask {
			g = l.maskGlobals(g, v.epoch)
		}
		if len(g) > 0 {
			lists = append(lists, g)
		}
	}
	return ops.UnionMany(lists), nil
}

// TopK ranks across every segment by summed quantized impact (score
// descending, docid ascending on ties) — identical to TopK on a
// from-scratch index over the surviving documents.
func (l *Live) TopK(k int, terms ...string) ([]Result, error) {
	return l.TopKWith("", k, nil, terms...)
}

// rankView is one segment as a ranked query sees it: the source of its
// impact lists, the map from its docids to global ones (nil when they
// already are global), and which docids' tombstones can mask it (nil
// for the mutable segment, whose deletes are physical).
type rankView struct {
	src    rankSource
	global func(uint32) uint32
	holds  func(uint32) bool
	epoch  int
}

// rankSource builds a segment's impact lists: *Index for a sealed
// segment, *MemSegment for an in-memory one.
type rankSource interface {
	topkLists(terms []string) []ops.ImpactList
}

// rankViews lists the segments a ranked query scores: every sealed one
// that is not quarantined, then the in-memory ones. Caller holds mu
// shared.
func (l *Live) rankViews() []rankView {
	var out []rankView
	for _, seg := range l.sealed {
		if !seg.quarantined {
			out = append(out, rankView{seg.snap.Index(), seg.ranges.toGlobal, seg.ranges.contains, seg.epoch})
		}
	}
	for _, v := range l.memViews() {
		rv := rankView{src: v.m, epoch: v.epoch}
		if v.mask {
			rv.holds = v.m.Has
		}
		out = append(out, rv)
	}
	return out
}

// TopKWith is TopK with optional work accounting and the algorithm
// named as Index.TopKWith names it. Every segment — sealed, frozen and
// mutable — is ranked by ops.TopK, and stats, when non-nil, receives
// the sum of their work counters. Each segment is asked for k plus the
// number of tombstones that could mask its results, so masking can
// never starve the merged candidate set.
func (l *Live) TopKWith(algo string, k int, stats *ops.TopKStats, terms ...string) ([]Result, error) {
	mode, err := topkMode(algo)
	if err != nil || k <= 0 {
		return nil, err
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	var lists [][]Result
	var total ops.TopKStats
	for _, v := range l.rankViews() {
		extra := 0
		for _, d := range l.tombSorted {
			if v.holds != nil && v.holds(d) && l.tombBounds[d] >= v.epoch {
				extra++
			}
		}
		var st ops.TopKStats
		rs := ops.TopK(mode, k+extra, v.src.topkLists(terms), &st)
		total.Add(st)
		keep := rs[:0]
		for _, r := range rs {
			if v.global != nil {
				r.Doc = v.global(r.Doc)
			}
			if v.holds == nil || !l.maskedLocked(r.Doc, v.epoch) {
				keep = append(keep, r)
			}
		}
		lists = append(lists, keep)
	}
	if stats != nil {
		*stats = total
	}
	return ops.MergeRanked(lists, k), nil
}

// LiveStats is the live index's gauge set for /stats.
type LiveStats struct {
	Segments            int    `json:"segments"`
	QuarantinedSegments int    `json:"quarantinedSegments"`
	MemDocs             int    `json:"memDocs"`
	FrozenDocs          int    `json:"frozenDocs"`
	VisibleDocs         int    `json:"visibleDocs"`
	Tombstones          int    `json:"tombstones"`
	NextDoc             uint32 `json:"nextDoc"`
	Epoch               int    `json:"epoch"`
	WALSeq              int    `json:"walSeq"`
	WALBytes            int64  `json:"walBytes"`
	WALPendingBytes     int64  `json:"walPendingBytes"`
	Seals               int64  `json:"seals"`
	Compactions         int64  `json:"compactions"`
	// LastSealAgeSec / LastCompactionAgeSec are -1 before the first
	// seal / compaction of this process.
	LastSealAgeSec       float64 `json:"lastSealAgeSec"`
	LastCompactionAgeSec float64 `json:"lastCompactionAgeSec"`
}

// Stats snapshots the gauges.
func (l *Live) Stats() LiveStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s := LiveStats{
		Segments: len(l.sealed), MemDocs: l.mem.Docs(),
		Tombstones: len(l.tombBounds), NextDoc: l.nextDoc, Epoch: l.epoch,
		WALSeq: l.walSeq, Seals: l.seals, Compactions: l.compactions,
		LastSealAgeSec: -1, LastCompactionAgeSec: -1,
	}
	if l.wal != nil {
		s.WALBytes = l.wal.Size()
		s.WALPendingBytes = l.wal.Pending()
	}
	if l.frozen != nil {
		s.FrozenDocs = l.frozen.Docs()
	}
	visible := l.mem.Docs() + s.FrozenDocs
	for _, seg := range l.sealed {
		n := seg.ranges.total()
		for _, d := range l.tombSorted {
			if seg.ranges.contains(d) && l.tombBounds[d] >= seg.epoch {
				n--
			}
		}
		visible += n
		if seg.quarantined {
			s.QuarantinedSegments++
		}
	}
	if l.frozen != nil {
		for _, d := range l.tombSorted {
			if l.frozen.Has(d) && l.tombBounds[d] >= l.frozenEpoch {
				visible--
			}
		}
	}
	s.VisibleDocs = visible
	if !l.lastSeal.IsZero() {
		s.LastSealAgeSec = time.Since(l.lastSeal).Seconds()
	}
	if !l.lastCompact.IsZero() {
		s.LastCompactionAgeSec = time.Since(l.lastCompact).Seconds()
	}
	return s
}

// LiveHealth is the live index's degraded-state summary: quarantined
// sealed segments are named while the mutable segment stays live —
// ingestion continues even when part of the sealed history cannot be
// served.
type LiveHealth struct {
	Degraded            bool     `json:"degraded"`
	QuarantinedSegments []string `json:"quarantinedSegments,omitempty"`
	MutableLive         bool     `json:"mutableLive"`
}

// Health reports the degraded-state summary.
func (l *Live) Health() LiveHealth {
	l.mu.RLock()
	defer l.mu.RUnlock()
	h := LiveHealth{MutableLive: !l.closed && l.broken == nil}
	for _, seg := range l.sealed {
		if seg.quarantined {
			h.Degraded = true
			h.QuarantinedSegments = append(h.QuarantinedSegments, seg.file)
		} else if seg.snap.Index().Health().Degraded {
			// Opened only in degraded mode: servable subset.
			h.Degraded = true
			h.QuarantinedSegments = append(h.QuarantinedSegments, seg.file)
		}
	}
	return h
}

// Docs reports the number of visible documents.
func (l *Live) Docs() int { return l.Stats().VisibleDocs }

// Dir reports the live directory.
func (l *Live) Dir() string { return l.dir }

// Close shuts the live index down: syncs and closes the WAL, retires
// every sealed snapshot. Not an implicit Seal — the mutable segment's
// contents live in the WAL and replay on the next OpenLive.
func (l *Live) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	w := l.wal
	segs := l.sealed
	l.mu.Unlock()
	var err error
	if w != nil {
		err = w.Close()
	}
	for _, s := range segs {
		if s.snap != nil {
			s.snap.Retire()
		}
	}
	return err
}
