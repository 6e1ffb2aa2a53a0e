package codecs

import (
	"encoding"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
)

// TestDecodeSurvivesBitFlips corrupts serialized postings one byte at a
// time: Decode must either reject the blob or return a posting whose
// decompressed form is a valid sorted set (VerifyDecompress guarantees
// this). It must never panic.
func TestDecodeSurvivesBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vals := gen.Uniform(300, 1<<18, 1)
	for _, c := range All() {
		p, err := c.Compress(vals)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := p.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 200; trial++ {
			mut := make([]byte, len(blob))
			copy(mut, blob)
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%s: Decode panicked on corrupted input: %v", c.Name(), r)
					}
				}()
				q, err := Decode(mut)
				if err != nil {
					return // rejected: fine
				}
				// Accepted: the posting must be internally consistent.
				if err := core.VerifyDecompress(q); err != nil {
					t.Errorf("%s: Decode accepted corrupt blob yielding inconsistent posting", c.Name())
				}
			}()
		}
	}
}

// TestDecodeRefusesTrailingBytes: a blob is exactly one MarshalBinary
// output. Every codec's Decode, and the dispatching Decode, refuses
// one to three bytes after the payload — zeros, which a lax decoder
// reads as nothing — and accepts the blob itself, for empty, sparse and
// dense value lists.
func TestDecodeRefusesTrailingBytes(t *testing.T) {
	lists := [][]uint32{nil, gen.Uniform(300, 1<<18, 3), gen.Uniform(20000, 1<<16, 4)}
	for _, c := range append(All(), Extensions()...) {
		for _, vals := range lists {
			p, err := c.Compress(vals)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := p.(encoding.BinaryMarshaler).MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.(core.Decoder).Decode(blob); err != nil {
				t.Fatalf("%s, %d values: Decode refuses its own blob: %v", c.Name(), len(vals), err)
			}
			for extra := 1; extra <= 3; extra++ {
				long := append(append([]byte(nil), blob...), make([]byte, extra)...)
				if _, err := c.(core.Decoder).Decode(long); !errors.Is(err, core.ErrBadFormat) {
					t.Errorf("%s, %d values: Decode with %d trailing bytes = %v, want ErrBadFormat", c.Name(), len(vals), extra, err)
				}
				if _, err := Decode(long); err == nil {
					t.Errorf("%s, %d values: dispatching Decode accepts %d trailing bytes", c.Name(), len(vals), extra)
				}
			}
		}
	}
}

// FuzzDecode is the native fuzz target: arbitrary bytes through the
// dispatching decoder. Seeds cover every codec's valid encoding.
func FuzzDecode(f *testing.F) {
	vals := gen.Uniform(64, 1<<14, 2)
	for _, c := range append(All(), Extensions()...) {
		p, err := c.Compress(vals)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := p.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := Decode(data)
		if err != nil {
			return
		}
		if err := core.VerifyDecompress(q); err != nil {
			t.Fatalf("accepted blob fails verification: %v", err)
		}
	})
}
