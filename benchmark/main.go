// Command benchmark is the repository's one measurement spine. It
// drives the real binaries (bvindex, bvserve, bvserve -live, bvrouter)
// and the codec library through five named workloads, checks every
// answer against a naive reference it computes itself, prints every
// metric by name with its unit, and appends one record per metric to
// benchmark/results/history.jsonl. README.md in this directory says
// what each workload and metric is for.
//
//	go run ./benchmark -seed 1                 every workload, both passes
//	go run ./benchmark -workload serve-topk    one workload
//	go run ./benchmark -trace 1                traced pass only: per-layer metrics and span files
//	go run ./benchmark -selfcheck              everything twice; fails if a metric moves past its bound
//
// The last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the exit code is
// non-zero when any answer was wrong.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// run is one workload execution: what it was asked to do, where it may
// put files and processes, and where its numbers go.
type run struct {
	rig      *rig
	workload string
	seed     int64
	seconds  time.Duration // length of the measured window
	traced   bool

	values    map[string]float64
	counts    map[string]int // samples behind a value
	attempted int
	failed    int
	spans     []span
}

// set records a metric value and the number of samples behind it.
func (r *run) set(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// tallied folds a load phase's operation counts into the run's.
func (r *run) tallied(t *tally) *tally {
	r.attempted += t.attempted()
	r.failed += t.failed()
	return t
}

// check counts one verified operation that is not part of a load phase.
func (r *run) check(ok bool) bool {
	r.attempted++
	if !ok {
		r.failed++
	}
	return ok
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all five)")
		seed      = flag.Int64("seed", 1, "workload seed; seed 2 is the held-out seed for later claims")
		seconds   = flag.Int("seconds", defaultSeconds, "length of each measured window")
		trace     = flag.Int("trace", -1, "0: end-to-end pass only; 1: traced per-layer pass only; -1: both")
		selfcheck = flag.Bool("selfcheck", false, "run everything twice and fail if an end-to-end metric differs by more than its bound")
		history   = flag.String("history", filepath.Join("benchmark", "results", "history.jsonl"), "file each run's records are appended to (empty: none)")
	)
	flag.Parse()
	if err := benchMain(*workload, *seed, *seconds, *trace, *selfcheck, *history); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func benchMain(workload string, seed int64, seconds, trace int, selfcheck bool, history string) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("-seconds=%d: want 1 to 60", seconds)
	}
	runners := map[string]func(*run) error{}
	var names []string
	for _, w := range workloads {
		runners[w.name] = w.run
		if workload == "" || workload == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-workload=%q: not one of the five workloads (see README.md)", workload)
	}
	if _, err := os.Stat("go.mod"); err != nil {
		return errors.New("run from the root of the repository: the programs under test are built from source there")
	}

	rg, err := newRig()
	if err != nil {
		return err
	}
	defer rg.close()
	// A signal — a reader closing our standard output included — stops
	// the servers and removes the temp dir before exit.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGPIPE)
	go func() {
		<-sig
		rg.close()
		os.Exit(130)
	}()

	env := environment()
	pass := func(name string, traced bool) (*run, error) {
		r := &run{
			rig: rg, workload: name, seed: seed, seconds: time.Duration(seconds) * time.Second,
			traced: traced, values: map[string]float64{}, counts: map[string]int{},
		}
		if err := runners[name](r); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		if traced {
			if err := r.writeSpans(); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	rounds, passes := 1, []bool{false, true}
	switch {
	case selfcheck:
		rounds, passes = 2, []bool{false}
	case trace == 0 || trace == 1:
		passes = []bool{trace == 1}
	}

	correct := true
	for _, name := range names {
		var last, first map[string]float64
		final := result{Correct: true, Metrics: map[string]metricValue{}}
		for round := 0; round < rounds; round++ {
			for _, traced := range passes {
				r, err := pass(name, traced)
				if err != nil {
					return err
				}
				r.print()
				if err := r.appendHistory(history, env); err != nil {
					return err
				}
				final.add(r)
				first, last = last, r.values
			}
		}
		if selfcheck && !agree(name, first, last) {
			return fmt.Errorf("%s: self-check failed", name)
		}
		correct = correct && final.Correct
		line, err := json.Marshal(final)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	if !correct {
		return errors.New("incorrect answers")
	}
	return nil
}

// metricValue and result are the shape of the final stdout line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (f *result) add(r *run) {
	f.Attempted += r.attempted
	f.Failed += r.failed
	f.Correct = f.Correct && r.failed == 0 && r.attempted > 0
	for _, m := range r.defs() {
		f.Metrics[m.name] = metricValue{r.values[m.name], m.unit}
	}
}

// defs is the metric list this pass reports: every end-to-end metric,
// or every per-layer metric on a traced pass.
func (r *run) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

// print writes the pass's metrics by name, with unit and sample count.
func (r *run) print() {
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s seed=%d %s: attempted=%d failed=%d error_frac=%g\n",
		r.workload, r.seed, kind, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, m := range r.defs() {
		if _, ok := r.values[m.name]; !ok && r.traced {
			continue // a layer this workload does not touch; reported as 0 on the last line
		}
		fmt.Printf("%-40s %14.4f %-7s n=%d\n", m.name, r.values[m.name], m.unit, r.counts[m.name])
	}
}

// record is the one shape every metric is emitted in.
type record struct {
	Area     string  `json:"area"`
	Cell     string  `json:"cell"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	N        int     `json:"n"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Commit   string  `json:"commit"`
	GOOS     string  `json:"goos"`
	GOARCH   string  `json:"goarch"`
	CPU      string  `json:"cpu"`
	NProc    int     `json:"nproc"`
	Bound    float64 `json:"bound"`
}

// environment fills the fields that tie a record to a commit and a box.
func environment() record {
	env := record{Commit: "unknown", GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: "unknown", NProc: runtime.NumCPU()}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
			env.Commit += "-dirty"
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// splitName cuts a metric name into area, cell and metric:
// "bitmap.Roaring.and_us" → bitmap, Roaring, and_us; end-to-end
// metrics have area "e2e".
func splitName(name string) (area, cell, metric string) {
	parts := strings.Split(name, ".")
	switch len(parts) {
	case 1:
		return "e2e", "", name
	case 2:
		return parts[0], "", parts[1]
	default:
		return parts[0], strings.Join(parts[1:len(parts)-1], "."), parts[len(parts)-1]
	}
}

func (r *run) appendHistory(path string, env record) error {
	if path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, m := range r.defs() {
		v, ok := r.values[m.name]
		if !ok {
			continue
		}
		rec := env
		rec.Area, rec.Cell, rec.Metric = splitName(m.name)
		rec.Value, rec.Unit, rec.N, rec.Bound = v, m.unit, r.counts[m.name], m.bound
		rec.Workload, rec.Seed = r.workload, r.seed
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// agree is the repeatability self-check: two passes of the same code
// must agree on every end-to-end metric within the metric's own bound.
func agree(workload string, a, b map[string]float64) bool {
	ok := true
	for _, m := range endToEnd {
		spread := 0.0
		if lo := min(a[m.name], b[m.name]); lo > 0 {
			spread = (max(a[m.name], b[m.name]) - lo) / lo
		}
		verdict := "ok"
		if spread > m.bound {
			verdict, ok = "FAIL", false
		}
		fmt.Printf("selfcheck %-14s %-16s %12.4f %12.4f spread=%.4f bound=%.2f %s\n",
			workload, m.name, a[m.name], b[m.name], spread, m.bound, verdict)
	}
	return ok
}
