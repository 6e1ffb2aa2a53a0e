package intlist

import (
	"repro/internal/core"
)

// External storage support: the paper's evaluation is main-memory only
// and explicitly defers disks to future work (§4.1); it also criticizes
// [8] for letting the OS buffer cache confound its disk comparison. The
// stored-posting frame makes that experiment controllable: skip
// pointers stay in memory (as real systems keep them), block payloads
// live behind a Fetcher, and every payload access is explicit — so a
// simulated device (internal/iosim) can count exactly which bytes each
// operation touches.

// Fetcher supplies byte ranges of an externally stored payload.
type Fetcher interface {
	// Fetch returns payload bytes [offset, offset+length).
	Fetch(offset, length int) []byte
}

// CompressStored compresses values with the Blocked frame, hands the
// payload to store, and returns a posting whose block decodes fetch
// through the returned Fetcher.
func (b Blocked) CompressStored(values []uint32, store func(payload []byte) Fetcher) (core.Posting, error) {
	p, err := b.Compress(values)
	if err != nil {
		return nil, err
	}
	lp := p.(*listPosting)
	lp.fetcher, lp.stored = store(lp.data), len(lp.data)
	lp.data = nil
	return storedPosting{lp, lp}, nil
}

// storedPosting is a listPosting whose payload lives behind a Fetcher,
// showing only core.Posting and its Iterator: no core.BlockDecoder and
// no BinaryMarshaler, so operations take it as a plain skipping list
// and read its payload through fetches alone.
type storedPosting struct {
	core.Posting
	core.Seeker
}
