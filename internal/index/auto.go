package index

import (
	"fmt"

	"repro/internal/codecs"
	"repro/internal/core"
)

// Adaptive per-list codec selection (DESIGN §8): the builder consults
// core.AdviseList for every finished posting list and compresses it
// with the recommended codec — Roaring / Roaring+Run for dense lists,
// SIMDBP128* / SIMDPforDelta* for sparse — persisting the choice in
// the BVIX3 dict's per-term codec byte.

// AutoSelector returns the standard adaptive CodecSelector: per-list
// statistics (density, concentration, run structure) feed
// core.AdviseList and the recommendation resolves through the codec
// registry. The selector is stateless apart from the immutable codec
// instances, so it is safe for Build's worker pool.
func AutoSelector() CodecSelector {
	// Resolve the advisor's full output range up front; a missing name
	// here is a programming error, not a data condition.
	table := map[string]core.Codec{}
	for _, name := range []string{"Roaring", "Roaring+Run", "SIMDBP128*", "SIMDPforDelta*"} {
		c, err := codecs.ByName(name)
		if err != nil {
			panic(fmt.Sprintf("index: advisor codec %q not in registry: %v", name, err))
		}
		table[name] = c
	}
	return func(list []uint32, docs int) core.Codec {
		rec := core.AdviseList(core.ComputeStats(list, uint64(docs)))
		c, ok := table[rec.Codec]
		if !ok {
			// The advisor grew a recommendation this table does not
			// know; fall back to the registry rather than failing the
			// build.
			c, _ = codecs.ByName(rec.Codec)
			if c == nil {
				c = table["Roaring"]
			}
		}
		return c
	}
}

// TermCodec reports the registry name of the codec compressing a
// term's posting list ("" for unknown terms, and for entries whose
// provenance did not record one and whose blob names no codec).
func (idx *Index) TermCodec(term string) string {
	e, ok := idx.term(term)
	if !ok {
		return ""
	}
	return e.codec
}

// CodecMix reports how many servable terms each codec compresses —
// the observable shape of an adaptive index. For a lazily opened BVIX3
// index the mix comes straight from the dict's codec bytes without
// materializing a single posting; quarantined terms are excluded.
// Entries whose codec is unrecorded count under "".
func (idx *Index) CodecMix() map[string]int {
	mix := map[string]int{}
	if idx.lazy != nil {
		idx.lazy.codecMix(mix)
		return mix
	}
	for _, e := range idx.terms {
		mix[e.codec]++
	}
	return mix
}

// codecMix accumulates the dict's codec bytes under the read lock.
func (lz *lazyIndex) codecMix(mix map[string]int) {
	lz.mu.RLock()
	defer lz.mu.RUnlock()
	if lz.closed {
		return
	}
	cur := 0
	for i := 0; i < lz.termCount; i++ {
		rec, err := parseDictRecord(lz.geo.dict, cur)
		if err != nil {
			return // unreachable: open validated this prefix
		}
		cur = rec.next
		if _, bad := lz.quarantined[string(rec.name)]; bad {
			continue
		}
		name, _ := codecs.NameByID(rec.codec)
		mix[name]++
	}
}
