package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// The traced pass replays a workload's first ladderQueries queries one
// at a time through each layer's public functions, lowest layer first:
// the ladder. Each call is one span; spans are kept in memory and
// written out when the pass ends. The rungs of one query share a trace
// id, and a rung's parent is the rung above it, so a rung's self time
// is its span minus its child's. Spans are recorded here, around the
// calls into each layer; spans inside cmd/ and internal/ are a later
// change.
const ladderQueries = 256

type span struct {
	Trace   int            `json:"trace"`  // the query's index in its set
	Span    int            `json:"span"`   // 1 = lowest rung
	Parent  int            `json:"parent"` // the rung above; 0 for the top rung
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"` // since the pass began
	EndNS   int64          `json:"end_ns"`
	Counts  map[string]int `json:"counts,omitempty"`
}

// rung names one layer of a ladder and how to push query q through it.
// call returns counts worth keeping (answer size, blocks decoded) and
// whether the answer was right.
type rung struct {
	name string
	call func(q *query) (counts map[string]int, ok bool)
}

// ladderResult holds, per rung, the span durations in query order.
type ladderResult struct {
	ns [][]float64 // [rung][query]
}

// climb replays qs up the rungs and records one span per rung per
// query. With record false nothing is kept but the clock is still
// read, which is what the traced replay is compared against to get the
// cost of tracing.
func (r *run) climb(epoch time.Time, rungs []rung, qs []query, record bool) *ladderResult {
	res := &ladderResult{ns: make([][]float64, len(rungs))}
	for qi := range qs {
		for ri, rg := range rungs {
			t0 := time.Now()
			counts, ok := rg.call(&qs[qi])
			t1 := time.Now()
			r.check(ok)
			if !record {
				continue
			}
			res.ns[ri] = append(res.ns[ri], float64(t1.Sub(t0).Nanoseconds()))
			r.addSpan(epoch, qi, ri, len(rungs), rg.name, t0, t1, counts)
		}
	}
	return res
}

// addSpan records rung ri (0 = lowest) of n for one trace.
func (r *run) addSpan(epoch time.Time, trace, ri, n int, name string, t0, t1 time.Time, counts map[string]int) {
	parent := ri + 2
	if ri == n-1 {
		parent = 0
	}
	r.spans = append(r.spans, span{
		Trace: trace, Span: ri + 1, Parent: parent, Name: name,
		StartNS: t0.Sub(epoch).Nanoseconds(), EndNS: t1.Sub(epoch).Nanoseconds(), Counts: counts,
	})
}

// mean is the mean span of rung i, in ns.
func (l *ladderResult) mean(i int) float64 {
	s := 0.0
	for _, v := range l.ns[i] {
		s += v
	}
	return s / float64(max(len(l.ns[i]), 1))
}

// classMean is the mean span of rung i, in µs, over the queries of one
// class, and how many there were.
func (l *ladderResult) classMean(i int, qs []query, class int) (us float64, n int) {
	s := 0.0
	for q, v := range l.ns[i] {
		if qs[q].class == class {
			s, n = s+v, n+1
		}
	}
	return s / 1e3 / float64(max(n, 1)), n
}

// selfMean is the mean over queries of rung i's self time: its span
// minus the span of the rung below on the same query. The two spans
// are separate executions, so on one query the difference can come out
// negative; it is not floored, because flooring would bias the mean
// upward by the noise, and unfloored the self times of a query add up
// to its top rung exactly.
func (l *ladderResult) selfMean(i int) float64 {
	if i == 0 {
		return l.mean(0)
	}
	return l.mean(i) - l.mean(i-1)
}

// traceOverhead replays the first quarter of the ladder twice more —
// spans kept, then not — and reports by what share keeping them slowed
// the replay. Around zero it is noise and may come out negative.
func (r *run) traceOverhead(rungs []rung, qs []query) {
	qs = qs[:len(qs)/4]
	keep := r.spans
	t0 := time.Now()
	r.climb(t0, rungs, qs, true)
	with := time.Since(t0)
	r.spans = keep
	t0 = time.Now()
	r.climb(t0, rungs, qs, false)
	without := time.Since(t0)
	r.set("loadgen.trace_overhead_frac", with.Seconds()/without.Seconds()-1, 2*len(qs))
}

// writeSpans writes the pass's spans to benchmark/out/trace-<workload>.jsonl.
func (r *run) writeSpans() error {
	dir := filepath.Join("benchmark", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+r.workload+".jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
