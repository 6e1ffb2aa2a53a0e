package index

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
)

// Degraded-mode open: the recovery path for a BVIX3 file whose header
// is intact but whose section checksums are not. Instead of refusing
// the whole file, open quarantines what cannot be verified and serves
// the rest:
//
//   - frames section corrupt: the skip-frame table is redundant (it is
//     derivable from the dict), so it is rebuilt in memory and nothing
//     is quarantined.
//   - dict section corrupt: the dictionary is walked record by record
//     with full bounds/order/tiling validation and cut at the first
//     violation; the valid prefix is served, the rest quarantined.
//   - payload section corrupt: every surviving term's posting blob is
//     re-checksummed, decoded and cross-checked against its dict record
//     up front; terms whose blob no longer checksums or decodes cleanly
//     are quarantined by name, the rest are served from the verified
//     decode. A term whose γ frequency list alone fails its CRC keeps
//     serving its postings but ranks by document count.
//   - impacts section corrupt (v4, v6 files): every surviving term's
//     impact record is re-verified against its own per-record CRC;
//     terms whose impact bytes no longer checksum or decode keep
//     serving their postings but lose the stored annotations — ranked
//     queries on them fall back to frequency-derived impacts. Docid
//     retrieval never degrades because of impact damage.
//
// A degraded index reports its salvage summary through Index.Health,
// which the serving layer surfaces on /healthz. Terms it serves from a
// CRC-failed payload section decoded cleanly and matched their
// declared counts, but the end-to-end checksum guarantee is gone —
// degraded mode is for limping until the index is rebuilt, not for
// running indefinitely; see the corruption-recovery runbook in the
// README.

// Health describes what an open salvaged. The zero value means a
// fully verified index.
type Health struct {
	// Degraded is true when any section failed its checksum and the
	// index is serving a salvaged subset.
	Degraded bool `json:"degraded"`
	// QuarantinedSections names the sections that failed their CRC.
	QuarantinedSections []string `json:"quarantinedSections,omitempty"`
	// QuarantinedTerms counts terms withheld from serving.
	QuarantinedTerms int `json:"quarantinedTerms,omitempty"`
	// QuarantinedImpacts counts terms still serving their postings but
	// stripped of stored impact annotations (ranking falls back to
	// frequency-derived impacts for them) or of a frequency list that
	// failed its CRC (ranking falls back to document counting).
	QuarantinedImpacts int `json:"quarantinedImpacts,omitempty"`
}

// Health reports the index's salvage state: the zero value for any
// fully verified index (built, read, or lazily opened), the salvage
// summary for one opened by OpenFileDegraded.
func (idx *Index) Health() Health { return idx.health }

// OpenFileDegraded opens a persisted index like OpenFile but, when the
// file fails section checksums, falls back to degraded mode: quarantine
// what cannot be verified, serve the rest, and report the damage
// through Index.Health. Files whose magic, header or geometry is
// unusable still fail outright.
func OpenFileDegraded(path string) (*Index, error) {
	mf, err := openMapFile(path)
	if err != nil {
		return nil, fmt.Errorf("index: open %s: %w", path, err)
	}
	idx, err := openBVIX3Degraded(mf.Data(), mf)
	if err != nil {
		mf.Close()
		return nil, err
	}
	return idx, nil
}

// postingInRange reports whether every decoded docid is strictly
// increasing and below docs — the invariant a CRC-clean payload
// guarantees and an unchecksummed one must prove.
func postingInRange(p core.Posting, docs int) bool {
	vals := p.Decompress()
	for i, v := range vals {
		if int(v) >= docs || (i > 0 && v <= vals[i-1]) {
			return false
		}
	}
	return true
}

// openBVIX3Degraded opens data leniently: a clean file comes back
// exactly as openBVIX3Lazy would return it; a file with section CRC
// failures comes back degraded with the salvage recorded in Health.
func openBVIX3Degraded(data []byte, closer io.Closer) (*Index, error) {
	g, secs, err := parseBVIX3Shell(data)
	if err != nil {
		return nil, err
	}
	bad := make([]bool, len(secs))
	var badNames []string
	for i, s := range secs {
		if crc32.Checksum(data[s.off:s.off+s.length], castagnoli) != s.crc {
			bad[i] = true
			badNames = append(badNames, bvix3SectionNames[i])
		}
	}
	badDict, badFrames, badPayload := bad[0], bad[1], bad[2]
	badImpacts := g.hasImpacts && bad[3]
	if !badDict && !badFrames && !badPayload && !badImpacts {
		return openBVIX3Lazy(data, closer)
	}

	// Walk the dictionary: strict when its CRC held (a violation then
	// means damage beyond what degraded mode can reason about), prefix
	// salvage when it did not. Frame cross-checks are skipped — the
	// frames are rebuilt from the walk below.
	valid, err := g.walkDict(!badDict, false)
	if err != nil {
		return nil, fmt.Errorf("index: %w: BVIX3 dict inconsistent with checksummed header: %v", core.ErrChecksum, err)
	}

	// Rebuild the skip frames over the valid prefix. Even when the
	// frames section's CRC held, a shortened prefix (corrupt dict)
	// invalidates its tail, so any degraded open rebuilds.
	frames := make([]byte, 0, 8*((valid+g.frameLen-1)/max(g.frameLen, 1)))
	cur := 0
	for i := 0; i < valid; i++ {
		rec, err := parseDictRecord(g.dict, cur)
		if err != nil {
			return nil, err // unreachable: the walk validated this prefix
		}
		if i%g.frameLen == 0 {
			frames = binary.LittleEndian.AppendUint64(frames, uint64(cur))
		}
		cur = rec.next
	}
	g.frames = frames

	lz := &lazyIndex{
		geo:                *g,
		termCount:          valid,
		sizeBytes:          g.sizeBytes,
		degraded:           true,
		quarantined:        map[string]struct{}{},
		impactsQuarantined: map[string]struct{}{},
		freqsQuarantined:   map[string]struct{}{},
		ready:              make(map[string]*lazyTerm),
		closer:             closer,
	}

	// With a corrupt payload section nothing in it can be taken on
	// faith: re-verify every surviving record now against its own
	// per-record CRCs from the (intact) dict. Only records whose blob
	// still checksums are decoded and served; the rest are quarantined
	// by name. The CRC gate is what makes salvage loss-only — corrupt
	// bytes can decode "cleanly" into plausible garbage (right count,
	// sorted, in range) that no structural check would catch. The
	// structural checks remain as belt-and-suspenders behind it.
	// (This forfeits lazy open's deferred decode — acceptable in a
	// mode whose purpose is limping through damage.) A γ frequency
	// list has a CRC of its own: a term whose list fails it keeps
	// serving its docids but loses its frequencies and its stored
	// impacts, so it ranks by document count and counts as an impacts
	// quarantine. (In v3 and v4 files one CRC covers the blob and the
	// raw frequencies, so either failing withholds the term.)
	//
	// A corrupt impacts section gets the same per-record treatment, but
	// quarantine is softer: impacts are ranking annotations, not
	// postings, so a term whose impact record fails its CRC (or panics
	// a decoder) is served without annotations instead of withheld.
	// One caveat is inherent: the impacts offset table lives in the
	// unverified section itself, so a corrupted table slot that happens
	// to land on another structurally compatible, CRC-clean record is
	// indistinguishable from the truth — the blast radius is a slightly
	// wrong ranking in a mode meant for limping until rebuild.
	if badPayload || badImpacts {
		cur := 0
		for i := 0; i < valid; i++ {
			rec, err := parseDictRecord(g.dict, cur)
			if err != nil {
				return nil, err // unreachable: the walk validated this prefix
			}
			cur = rec.next
			name := string(rec.name)
			var (
				p     core.Posting
				codec string
			)
			if badPayload {
				if crc32.Checksum(g.payload[rec.payOff:rec.payCRCEnd()], castagnoli) != rec.payCRC {
					lz.quarantined[name] = struct{}{}
					continue
				}
				var perr error
				p, codec, perr = salvagePosting(&lz.geo, rec)
				if perr == nil && !postingInRange(p, g.docs) {
					perr = fmt.Errorf("index: term %q: decoded postings out of range", rec.name)
				}
				if perr != nil {
					lz.quarantined[name] = struct{}{}
					continue
				}
				if rec.gamma && crc32.Checksum(g.freqBytes(rec), castagnoli) != rec.freqCRC {
					lz.freqsQuarantined[name] = struct{}{}
					lz.impactsQuarantined[name] = struct{}{}
				}
			}
			if _, lost := lz.impactsQuarantined[name]; g.hasImpacts && !lost {
				if _, ierr := salvageImpacts(&lz.geo, rec, i, badImpacts); ierr != nil {
					lz.impactsQuarantined[name] = struct{}{}
				}
			}
			if badPayload {
				lz.ready[name] = lz.newTerm(rec, i, p, codec)
			}
		}
	}

	return &Index{
		docs: g.docs,
		lazy: lz,
		health: Health{
			Degraded:            true,
			QuarantinedSections: badNames,
			QuarantinedTerms:    (g.terms - valid) + len(lz.quarantined),
			QuarantinedImpacts:  len(lz.impactsQuarantined),
		},
	}, nil
}

// salvagePosting decodes one record's posting behind a panic barrier.
// The codec decoders are written for trusted post-checksum bytes; the
// salvage pass deliberately feeds them bytes whose section checksum
// FAILED, so any malformed-input panic in a decoder must mean
// "quarantine this term", never "crash the open".
func salvagePosting(geo *bvix3Geometry, rec dictRecord) (p core.Posting, codec string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("index: term %q: decoder panic on corrupt payload: %v", rec.name, r)
		}
	}()
	return geo.decodePosting(rec)
}

// salvageImpacts materializes one term's impact annotations behind the
// same panic barrier, additionally re-verifying the record's own CRC
// when the impacts section checksum failed (checkCRC). Any error means
// "serve this term without annotations", never "fail the open".
func salvageImpacts(geo *bvix3Geometry, rec dictRecord, ordinal int, checkCRC bool) (m *impactMeta, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("index: term %q: decoder panic on corrupt impacts: %v", rec.name, r)
		}
	}()
	if checkCRC {
		ir, ierr := geo.impactsRecordFor(ordinal, rec.count)
		if ierr != nil {
			return nil, ierr
		}
		if !ir.crcOK() {
			return nil, fmt.Errorf("index: term %q: impacts record checksum mismatch", rec.name)
		}
	}
	return geo.materializeImpacts(rec, ordinal)
}
