package index

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/bitmap"
	"repro/internal/codecs"
	"repro/internal/faultio"
)

// The segment manifest is the live index's commit point: one small
// checksummed file naming every sealed segment, the tombstone set, and
// the WAL window to replay. Every seal and every compaction publishes a
// whole new manifest with the same atomic discipline WriteFile uses
// (temp + fsync + rename + dir fsync), so a crash at any instant leaves
// either the old manifest or the new one — never a blend.
//
// Format: an 8-byte magic, a u32 little-endian body length, a u32
// CRC-32C of the body, then the JSON body. The CRC turns a torn
// manifest write into a detectable open error rather than a silently
// half-parsed state (the rename discipline should make that impossible;
// the checksum is the backstop the rest of this module applies to every
// on-disk artifact).
const (
	manifestName  = "MANIFEST"
	manifestMagic = "BVLIVE1\n"
)

// segmentMeta describes one sealed segment in the manifest.
type segmentMeta struct {
	// File is the segment's BVIX3 file name, relative to the live dir.
	File string `json:"file"`
	// Epoch is the seal epoch: a tombstone with bound >= Epoch masks
	// this segment's copy of the document.
	Epoch int `json:"epoch"`
	// DocMap encodes the segment's local-to-global docid mapping as
	// runs of [firstGlobalID, length]: local ids are assigned densely in
	// ascending global order, so runs reconstruct the full mapping.
	DocMap [][2]uint32 `json:"docmap"`
}

// manifest is the persisted live-index state.
type manifest struct {
	Version int `json:"version"`
	// NextDoc is a floor for the next docid to assign; replaying the
	// WAL window can only raise it.
	NextDoc uint32 `json:"nextDoc"`
	// WALFloor is the first WAL sequence number recovery must replay;
	// WALSeq is the sequence that was active at publish. Everything in
	// [WALFloor, WALSeq] plus any higher-numbered log found on disk
	// replays in order.
	WALFloor int `json:"walFloor"`
	WALSeq   int `json:"walSeq"`
	// SegSeq is the next segment file sequence number.
	SegSeq int `json:"segSeq"`
	// Epoch is the mutable segment's epoch (the number of seals so
	// far); a delete is recorded with bound Epoch-1.
	Epoch    int           `json:"epoch"`
	Segments []segmentMeta `json:"segments"`
	// TombBitmap is the deletion set as a serialized Roaring bitmap
	// (base64); TombBounds carries the epoch bound for each deleted
	// docid, aligned with the bitmap's ascending order.
	TombBitmap string `json:"tombBitmap,omitempty"`
	TombBounds []int  `json:"tombBounds,omitempty"`
}

// encodeTombs packs the tombstone map into the Roaring bitmap + aligned
// bounds representation.
func (m *manifest) encodeTombs(bounds map[uint32]int) error {
	if len(bounds) == 0 {
		m.TombBitmap, m.TombBounds = "", nil
		return nil
	}
	ids := make([]uint32, 0, len(bounds))
	for d := range bounds {
		ids = append(ids, d)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	p, err := bitmap.NewRoaring().Compress(ids)
	if err != nil {
		return fmt.Errorf("index: manifest tombstone bitmap: %w", err)
	}
	blob, err := p.(interface{ MarshalBinary() ([]byte, error) }).MarshalBinary()
	if err != nil {
		return fmt.Errorf("index: manifest tombstone bitmap: %w", err)
	}
	m.TombBitmap = base64.StdEncoding.EncodeToString(blob)
	m.TombBounds = make([]int, len(ids))
	for i, d := range ids {
		m.TombBounds[i] = bounds[d]
	}
	return nil
}

// decodeTombs unpacks the tombstone map.
func (m *manifest) decodeTombs() (map[uint32]int, error) {
	if m.TombBitmap == "" {
		if len(m.TombBounds) != 0 {
			return nil, errors.New("index: manifest tombstone bounds without bitmap")
		}
		return map[uint32]int{}, nil
	}
	blob, err := base64.StdEncoding.DecodeString(m.TombBitmap)
	if err != nil {
		return nil, fmt.Errorf("index: manifest tombstone bitmap: %w", err)
	}
	p, err := codecs.Decode(blob)
	if err != nil {
		return nil, fmt.Errorf("index: manifest tombstone bitmap: %w", err)
	}
	ids := p.Decompress()
	if len(ids) != len(m.TombBounds) {
		return nil, fmt.Errorf("index: manifest tombstones: %d ids but %d bounds", len(ids), len(m.TombBounds))
	}
	bounds := make(map[uint32]int, len(ids))
	for i, d := range ids {
		bounds[d] = m.TombBounds[i]
	}
	return bounds, nil
}

// writeManifest publishes m atomically into dir.
func writeManifest(fsys faultio.FS, dir string, m *manifest) error {
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("index: encoding manifest: %w", err)
	}
	buf := make([]byte, 0, len(manifestMagic)+8+len(body))
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(body, castagnoli))
	buf = append(buf, body...)

	path := filepath.Join(dir, manifestName)
	tmp := fmt.Sprintf("%s.tmp.%d", path, os.Getpid())
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("index: manifest: %w", err)
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("index: manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return fmt.Errorf("index: manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("index: manifest: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return fmt.Errorf("index: manifest: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("index: manifest: %w", err)
	}
	return nil
}

// readManifest loads the manifest from dir. ok is false when no
// manifest exists (a fresh live dir).
func readManifest(fsys faultio.FS, dir string) (m *manifest, ok bool, err error) {
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, false, nil
		}
		return nil, false, fmt.Errorf("index: reading manifest: %w", err)
	}
	if len(data) < len(manifestMagic)+8 || string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, false, errors.New("index: manifest: bad magic")
	}
	n := binary.LittleEndian.Uint32(data[len(manifestMagic):])
	sum := binary.LittleEndian.Uint32(data[len(manifestMagic)+4:])
	body := data[len(manifestMagic)+8:]
	if int(n) != len(body) {
		return nil, false, fmt.Errorf("index: manifest: body length %d, header says %d", len(body), n)
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, false, errors.New("index: manifest: checksum mismatch")
	}
	m = &manifest{}
	if err := json.Unmarshal(body, m); err != nil {
		return nil, false, fmt.Errorf("index: manifest: %w", err)
	}
	if m.Version != 1 {
		return nil, false, fmt.Errorf("index: manifest: unsupported version %d", m.Version)
	}
	return m, true, nil
}

// idRanges is a segment's local<->global docid mapping: ascending runs
// of global ids, local ids dense from zero across the runs.
type idRanges struct {
	starts []uint32 // first global id of each run
	lens   []uint32
	cum    []uint32 // local id of each run's first doc
	n      uint32
}

// rangesFromIDs builds the mapping from an ascending global id list.
func rangesFromIDs(ids []uint32) idRanges {
	var r idRanges
	for i := 0; i < len(ids); {
		j := i + 1
		for j < len(ids) && ids[j] == ids[j-1]+1 {
			j++
		}
		r.starts = append(r.starts, ids[i])
		r.lens = append(r.lens, uint32(j-i))
		r.cum = append(r.cum, r.n)
		r.n += uint32(j - i)
		i = j
	}
	return r
}

// rangesFromMeta rebuilds the mapping from its manifest encoding.
func rangesFromMeta(runs [][2]uint32) idRanges {
	var r idRanges
	for _, run := range runs {
		r.starts = append(r.starts, run[0])
		r.lens = append(r.lens, run[1])
		r.cum = append(r.cum, r.n)
		r.n += run[1]
	}
	return r
}

// meta encodes the mapping for the manifest.
func (r idRanges) meta() [][2]uint32 {
	runs := make([][2]uint32, len(r.starts))
	for i := range r.starts {
		runs[i] = [2]uint32{r.starts[i], r.lens[i]}
	}
	return runs
}

// total is the number of documents in the segment.
func (r idRanges) total() int { return int(r.n) }

// maxGlobal is the highest global id in the segment (0, false when
// empty).
func (r idRanges) maxGlobal() (uint32, bool) {
	if len(r.starts) == 0 {
		return 0, false
	}
	last := len(r.starts) - 1
	return r.starts[last] + r.lens[last] - 1, true
}

// toGlobal maps one local id.
func (r idRanges) toGlobal(local uint32) uint32 {
	i := sort.Search(len(r.cum), func(i int) bool { return r.cum[i] > local }) - 1
	return r.starts[i] + (local - r.cum[i])
}

// toLocal maps one global id; ok is false when the segment does not
// contain it.
func (r idRanges) toLocal(global uint32) (uint32, bool) {
	i := sort.Search(len(r.starts), func(i int) bool { return r.starts[i] > global }) - 1
	if i < 0 || global-r.starts[i] >= r.lens[i] {
		return 0, false
	}
	return r.cum[i] + (global - r.starts[i]), true
}

// contains reports whether the segment holds the global id.
func (r idRanges) contains(global uint32) bool {
	_, ok := r.toLocal(global)
	return ok
}

// globals maps an ascending local id list to global ids in place and
// returns it (still ascending: the mapping is monotonic). The caller
// must own ids.
func (r idRanges) globals(ids []uint32) []uint32 {
	run := 0
	for i, l := range ids {
		for run+1 < len(r.cum) && r.cum[run+1] <= l {
			run++
		}
		ids[i] = r.starts[run] + (l - r.cum[run])
	}
	return ids
}

// allGlobals enumerates every global id in the segment, ascending.
func (r idRanges) allGlobals() []uint32 {
	out := make([]uint32, 0, r.n)
	for i := range r.starts {
		for k := uint32(0); k < r.lens[i]; k++ {
			out = append(out, r.starts[i]+k)
		}
	}
	return out
}
