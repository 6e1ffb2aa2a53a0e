package index

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/faultio"
)

// FuzzFaultioOpen drives both BVIX3 open paths with deterministically
// corrupted images: faultio.Mutate turns the fuzzed seed into bit
// flips, zeroed runs, and truncations of a pristine index. The strict
// opener must never panic and must never silently accept altered data
// — if an image opens strictly, every probe must answer exactly as the
// pristine index does. The degraded opener must never panic and, when
// it salvages, each served term must decode to a sane posting list.
func FuzzFaultioOpen(f *testing.F) {
	idx, err := buildFuzzIndex("Roaring")
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := idx.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	pristine := buf.Bytes()
	probes := []string{"compressed", "bitmap", "lists", "zzz", ""}
	want := map[string][]uint32{}
	for _, p := range probes {
		want[p] = idx.DecodedPostings(p)
	}

	f.Add(int64(0)) // identity: the known-clean image must open
	for seed := int64(1); seed <= 64; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		img := faultio.Mutate(append([]byte{}, pristine...), seed)

		strict, err := openBVIX3Lazy(img, nil)
		if err == nil {
			for _, p := range probes {
				if got := strict.DecodedPostings(p); !reflect.DeepEqual(got, want[p]) {
					t.Fatalf("seed %d: strict open accepted a corrupt image and served wrong postings for %q: %v != %v",
						seed, p, got, want[p])
				}
			}
		} else if seed == 0 {
			t.Fatalf("strict open rejected the pristine image: %v", err)
		}

		deg, derr := openBVIX3Degraded(append([]byte{}, img...), nil)
		if derr != nil {
			return
		}
		if deg.Docs() < 0 || deg.Terms() < 0 || deg.SizeBytes() < 0 {
			t.Fatalf("seed %d: degraded open produced nonsense shape: docs=%d terms=%d size=%d",
				seed, deg.Docs(), deg.Terms(), deg.SizeBytes())
		}
		h := deg.Health()
		if h.QuarantinedTerms < 0 || len(h.QuarantinedSections) > 3 {
			t.Fatalf("seed %d: nonsense health %+v", seed, h)
		}
		for _, p := range probes {
			for _, doc := range deg.DecodedPostings(p) {
				if int(doc) >= deg.Docs() {
					t.Fatalf("seed %d: degraded index served doc %d beyond its %d docs for %q",
						seed, doc, deg.Docs(), p)
				}
			}
		}
	})
}
