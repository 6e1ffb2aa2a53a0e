// Command genkernels emits the width-specialized decode kernels of
// internal/kernels: for every bit width 0..maxUnrolled an unrolled
// horizontal unpack<b> (32 values per call) and the fused vertical
// kernels of the SIMD-BP128 4-lane layout, vunpackDelta<b> (unpack +
// delta prefix-sum in one pass) and vunpackBase<b> (unpack + constant
// base add, for SIMDBP128*'s offset-from-first layout). Each family's
// generated switch sends the wider widths to a hand-written fallback in
// kernels.go over the reference loops.
//
// The generator is deterministic: running it twice produces identical
// bytes, which the CI drift gate (go generate ./... && git diff
// --exit-code) and cmd/genkernels's own test rely on. Before writing
// anything it runs a self-check that packs pseudo-random values with
// the reference algorithms and re-extracts every value with the same
// word-index/shift arithmetic the emitter hardcodes, so a broken
// emitter can never overwrite good kernels.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/format"
	"log"
	"math/rand"
	"os"
	"path/filepath"
)

// maxUnrolled is the widest bit width that gets an unrolled kernel. No
// 128-value block of the benchmark's lists is wider than 21 bits, and
// its synthetic lists live in a 2^24 docid domain, so widths 25–32 only
// ever reach the reference-loop fallbacks (DESIGN.md §2).
const maxUnrolled = 24

const header = `// Code generated by genkernels. DO NOT EDIT.
//
// Regenerate with: go generate ./internal/kernels

package kernels

import "encoding/binary"

`

// Files returns the generated file set as name -> gofmt-ed contents.
func Files() (map[string][]byte, error) {
	if err := selfCheck(); err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	for name, gen := range map[string]func(*bytes.Buffer){
		"unpack_gen.go":       genUnpack,
		"vunpackdelta_gen.go": genVUnpackDelta,
		"vunpackbase_gen.go":  genVUnpackBase,
	} {
		var buf bytes.Buffer
		buf.WriteString(header)
		gen(&buf)
		src, err := format.Source(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("genkernels: %s does not format: %v", name, err)
		}
		out[name] = src
	}
	return out, nil
}

func main() {
	outDir := flag.String("out", ".", "directory of the internal/kernels package")
	flag.Parse()
	files, err := Files()
	if err != nil {
		log.Fatal(err)
	}
	for name, src := range files {
		path := filepath.Join(*outDir, name)
		if err := os.WriteFile(path, src, 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("genkernels: wrote %s (%d bytes)\n", path, len(src))
	}
}

// --- emitter -------------------------------------------------------------

// A stream accumulates the body of one kernel function, declaring each
// 32-bit source word as a local exactly once at its first use so the
// compiler keeps hot words in registers instead of re-loading them.
type stream struct {
	buf      bytes.Buffer
	declared map[int]bool
}

func newStream() *stream { return &stream{declared: map[int]bool{}} }

// load returns the local holding the little-endian uint32 at byte
// offset off, emitting its declaration on first use.
func (s *stream) load(off int) string {
	name := fmt.Sprintf("w%d", off)
	if !s.declared[off] {
		s.declared[off] = true
		fmt.Fprintf(&s.buf, "%s := binary.LittleEndian.Uint32(src[%d:])\n", name, off)
	}
	return name
}

// expr returns the branch-free expression for value v of width b within
// one lane whose 32-bit word k sits at byte offset off(k). It mirrors
// extract() below; the two must stay in sync (enforced by selfCheck).
func (s *stream) expr(b, v int, off func(int) int) string {
	o := v * b
	k, sh := o/32, o%32
	mask := fmt.Sprintf("0x%x", uint64(1)<<uint(b)-1)
	w := s.load(off(k))
	switch {
	case b == 32:
		return w
	case sh == 0:
		return fmt.Sprintf("%s & %s", w, mask)
	case sh+b == 32:
		return fmt.Sprintf("%s >> %d", w, sh)
	case sh+b < 32:
		return fmt.Sprintf("%s >> %d & %s", w, sh, mask)
	default:
		w2 := s.load(off(k + 1))
		return fmt.Sprintf("(%s>>%d | %s<<%d) & %s", w, sh, w2, 32-sh, mask)
	}
}

// horizOff is the word->byte mapping of the horizontal layout: one lane,
// consecutive little-endian words.
func horizOff(k int) int { return 4 * k }

// vertOff returns the word->byte mapping of lane l in the vertical
// 4-lane layout: word k of lane l is output word 4k+l.
func vertOff(l int) func(int) int {
	return func(k int) int { return 16*k + 4*l }
}

func genUnpack(w *bytes.Buffer) {
	for b := 0; b <= maxUnrolled; b++ {
		fmt.Fprintf(w, "// unpack%d decodes 32 %d-bit values (%d bytes) from src into out.\n", b, b, 4*b)
		fmt.Fprintf(w, "func unpack%d(src []byte, out *[32]uint32) {\n", b)
		if b == 0 {
			w.WriteString("_ = src\nfor i := range out {\nout[i] = 0\n}\n}\n\n")
			continue
		}
		fmt.Fprintf(w, "_ = src[%d]\n", 4*b-1)
		s := newStream()
		for v := 0; v < 32; v++ {
			e := s.expr(b, v, horizOff)
			fmt.Fprintf(&s.buf, "out[%d] = %s\n", v, e)
		}
		w.Write(s.buf.Bytes())
		w.WriteString("}\n\n")
	}
	emitDispatch(w, "unpackDispatch", "unpack", "src []byte, out *[32]uint32", "src, out")
}

// emitDispatch writes a switch-based dispatcher over the width
// specializations 0..maxUnrolled; its default case calls the
// hand-written <kernel>Wide, which decodes widths up to 32 through the
// reference loops and panics above. A func table would be shorter, but
// the indirect call defeats escape analysis and spills every caller's
// stack output array to the heap (one allocation per decoded block);
// direct calls in a switch keep decode allocation-free.
func emitDispatch(w *bytes.Buffer, name, kernel, params, callArgs string) {
	fmt.Fprintf(w, "// %s calls the width-b %s kernel via a direct call per\n// case so callers' output arrays stay on the stack.\n", name, kernel)
	fmt.Fprintf(w, "func %s(%s, b uint) {\nswitch b {\n", name, params)
	for b := 0; b <= maxUnrolled; b++ {
		fmt.Fprintf(w, "case %d:\n%s%d(%s)\n", b, kernel, b, callArgs)
	}
	fmt.Fprintf(w, "default:\n%sWide(%s, b)\n}\n}\n", kernel, callArgs)
}

func genVUnpackDelta(w *bytes.Buffer) {
	genFused(w, "vunpackDelta", "prev", "d-gaps of a vertical\n// 4-lane block and prefix-sums them onto prev in the same pass.",
		"prev += %[1]s\nout[%[2]d] = prev\n")
}

func genVUnpackBase(w *bytes.Buffer) {
	genFused(w, "vunpackBase", "base", "offsets of a vertical\n// 4-lane block and adds base in the same pass (SIMDBP128* layout).",
		"out[%[2]d] = base + (%[1]s)\n")
}

// genFused emits kernel<b>(src, out, acc) for widths 0..maxUnrolled:
// each decodes the first 127 values of a vertical block, and stmt folds
// value i (its expression %[1]s, its index %[2]d) into out through acc.
// At width 0 every value is zero, so every out[i] is acc.
func genFused(w *bytes.Buffer, kernel, acc, doc, stmt string) {
	for b := 0; b <= maxUnrolled; b++ {
		fmt.Fprintf(w, "// %s%d decodes the first 127 %d-bit %s\n", kernel, b, b, doc)
		fmt.Fprintf(w, "func %s%d(src []byte, out *[127]uint32, %s uint32) {\n", kernel, b, acc)
		if b == 0 {
			fmt.Fprintf(w, "_ = src\nfor i := range out {\nout[i] = %s\n}\n}\n\n", acc)
			continue
		}
		fmt.Fprintf(w, "_ = src[%d]\n", 16*b-1)
		s := newStream()
		for i := 0; i < 127; i++ {
			fmt.Fprintf(&s.buf, stmt, s.expr(b, i/4, vertOff(i%4)), i)
		}
		w.Write(s.buf.Bytes())
		w.WriteString("}\n\n")
	}
	params := fmt.Sprintf("src []byte, out *[127]uint32, %s uint32", acc)
	emitDispatch(w, kernel+"Dispatch", kernel, params, "src, out, "+acc)
}

// --- self-check ----------------------------------------------------------

// extract mirrors stream.expr as executable arithmetic: value v of
// width b out of a lane whose word k is produced by load(k).
func extract(load func(int) uint32, b, v int) uint32 {
	if b == 0 {
		return 0
	}
	o := v * b
	k, sh := o/32, o%32
	mask := uint32(uint64(1)<<uint(b) - 1)
	switch {
	case b == 32:
		return load(k)
	case sh+b <= 32:
		return load(k) >> uint(sh) & mask
	default:
		return (load(k)>>uint(sh) | load(k+1)<<uint(32-sh)) & mask
	}
}

// packLane packs 32 b-bit values into b little-endian words exactly the
// way the reference packers (kernels.Pack / kernels.VPack128) do.
func packLane(vals []uint32, b int) []uint32 {
	words := make([]uint32, b)
	var acc uint64
	var nbits uint
	w := 0
	for _, v := range vals {
		acc |= uint64(v) << nbits
		nbits += uint(b)
		for nbits >= 32 {
			words[w] = uint32(acc)
			acc >>= 32
			nbits -= 32
			w++
		}
	}
	return words
}

func selfCheck() error {
	rng := rand.New(rand.NewSource(42))
	for b := 0; b <= maxUnrolled; b++ {
		mask := uint32(uint64(1)<<uint(b) - 1)
		var vals [128]uint32
		for i := range vals {
			vals[i] = rng.Uint32() & mask
		}
		// Horizontal: one lane of 32 values.
		hwords := packLane(vals[:32], b)
		for v := 0; v < 32; v++ {
			got := extract(func(k int) uint32 { return hwords[k] }, b, v)
			if got != vals[v] {
				return fmt.Errorf("genkernels self-check: horizontal b=%d value %d: got %d want %d", b, v, got, vals[v])
			}
		}
		// Vertical: 4 interleaved lanes of 32 values each.
		var lanes [4][]uint32
		for l := 0; l < 4; l++ {
			lane := make([]uint32, 32)
			for r := 0; r < 32; r++ {
				lane[r] = vals[4*r+l]
			}
			lanes[l] = packLane(lane, b)
		}
		for i := 0; i < 128; i++ {
			l := i % 4
			got := extract(func(k int) uint32 { return lanes[l][k] }, b, i/4)
			if got != vals[i] {
				return fmt.Errorf("genkernels self-check: vertical b=%d value %d: got %d want %d", b, i, got, vals[i])
			}
		}
	}
	return nil
}
