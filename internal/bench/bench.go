// Package bench is the experiment harness: one registered experiment
// per table and figure in the paper's evaluation (Figures 3–12, Tables
// 1–3), each regenerating the corresponding rows — method, space, and
// per-operation time — on density-preserving scaled-down workloads
// (DESIGN.md §2–3).
package bench

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/ops"
)

// Config controls workload scale. The paper sweeps list sizes 1M..1B
// over a 2^31 domain; we keep the same densities over a smaller domain.
type Config struct {
	// Domain is the synthetic-data domain size d.
	Domain uint32
	// Densities are the list densities n/d to sweep; defaults mirror the
	// paper's 1M/10M/100M/1B over 2^31.
	Densities []float64
	// Ratio is |L2|/|L1| for the intersection/union sweeps (paper: 1000).
	Ratio int
	// RealScale shrinks the real-dataset row counts.
	RealScale float64
	// SFs are the SSB/TPCH scale factors to run.
	SFs []int
	// WebTerms and WebQueries size the Web workload.
	WebTerms, WebQueries int
	// Trials is the number of timed repetitions (minimum is reported).
	Trials int
	// Codecs restricts the methods run (nil = all 24).
	Codecs []string
}

// Default returns a configuration sized for a laptop-scale run
// (seconds per experiment rather than the paper's hours).
func Default() Config {
	return Config{
		Domain:     1 << 22,
		Densities:  []float64{0.000466, 0.00466, 0.0466, 0.466},
		Ratio:      1000,
		RealScale:  1.0 / 64,
		SFs:        []int{1},
		WebTerms:   400,
		WebQueries: 100,
		Trials:     3,
	}
}

// Quick returns a minimal configuration for tests.
func Quick() Config {
	c := Default()
	c.Domain = 1 << 16
	c.Densities = []float64{0.005, 0.2}
	c.Ratio = 100
	c.RealScale = 1.0 / 1024
	c.WebTerms = 50
	c.WebQueries = 10
	c.Trials = 1
	return c
}

// DensityName labels a density with the paper's corresponding list size
// (the density 1M/2^31 is labeled "1M", etc.).
func DensityName(d float64) string {
	switch {
	case d < 0.001:
		return "1M"
	case d < 0.01:
		return "10M"
	case d < 0.1:
		return "100M"
	default:
		return "1B"
	}
}

// Measurement is one cell group of a result table.
type Measurement struct {
	Experiment string  // e.g. "fig3"
	Setting    string  // e.g. "uniform/10M" or "SSB(SF=1)/Q1.1"
	Method     string  // codec name
	Op         string  // "decompress", "and", "or"
	SpaceBytes int     // compressed size of the operand lists
	TimeMS     float64 // best-of-trials wall time
}

// Experiment is a registered table/figure reproduction.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) ([]Measurement, error)
}

// selected returns the codecs requested by cfg.
func selected(cfg Config) ([]core.Codec, error) {
	if len(cfg.Codecs) == 0 {
		return codecs.All(), nil
	}
	out := make([]core.Codec, 0, len(cfg.Codecs))
	for _, n := range cfg.Codecs {
		c, err := codecs.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// timeIt reports the best wall time of trials runs of f, in ms.
func timeIt(trials int, f func()) float64 {
	if trials < 1 {
		trials = 1
	}
	best := 0.0
	for t := 0; t < trials; t++ {
		start := time.Now()
		f()
		el := float64(time.Since(start).Nanoseconds()) / 1e6
		if t == 0 || el < best {
			best = el
		}
	}
	return best
}

// sizeOf sums posting sizes.
func sizeOf(ps []core.Posting) int {
	s := 0
	for _, p := range ps {
		s += p.SizeBytes()
	}
	return s
}

// compressSet compresses all lists under one codec.
func compressSet(c core.Codec, lists [][]uint32) ([]core.Posting, error) {
	out := make([]core.Posting, len(lists))
	for i, l := range lists {
		p, err := c.Compress(l)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.Name(), err)
		}
		out[i] = p
	}
	return out, nil
}

// measureOps runs decompress/and/or on a compressed pair (or plan) and
// appends measurements.
func measureQuery(ms []Measurement, cfg Config, exp, setting string, c core.Codec,
	ps []core.Posting, plan ops.Expr, op string) ([]Measurement, error) {
	var err error
	var sink []uint32
	t := timeIt(cfg.Trials, func() {
		sink, err = ops.Eval(plan, ps)
	})
	if err != nil {
		return ms, err
	}
	runtime.KeepAlive(sink)
	return append(ms, Measurement{
		Experiment: exp, Setting: setting, Method: c.Name(), Op: op,
		SpaceBytes: sizeOf(ps), TimeMS: t,
	}), nil
}

// Registry returns all experiments sorted by ID.
func Registry() []Experiment {
	exps := []Experiment{
		fig3(), tab1(), tab2(), fig4(), fig5(), fig6(), fig7(), tab3(),
		fig8(), fig9(), fig10(), fig11(), fig12(), extIO(),
	}
	sort.Slice(exps, func(i, j int) bool { return exps[i].ID < exps[j].ID })
	return exps
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}
