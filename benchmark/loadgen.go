package main

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns is the generator's ceiling: one process, at most this many
// connections and goroutines issuing work. The box has two cores and
// the servers need theirs.
const maxConns = 2

// opTimeout is the limit past which an operation counts as failed and
// contributes no latency.
const opTimeout = 5 * time.Second

// client is one keep-alive connection with a reusable body buffer.
type client struct {
	hc   *http.Client
	base string
	buf  []byte
}

func newClient(base string) *client {
	return &client{
		base: base,
		hc: &http.Client{
			Timeout: opTimeout,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
				// Answers run to a megabyte; the default 4 KiB buffer would
				// spend the generator's CPU on read calls.
				ReadBufferSize: 64 << 10,
			},
		},
		buf: make([]byte, 0, 1<<20),
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole body into the client's
// buffer; the returned slice is valid until the next call.
func (c *client) do(method, path, body string) (int, []byte, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b := c.buf[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := resp.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			c.buf = b
			return resp.StatusCode, nil, err
		}
	}
	c.buf = b
	return resp.StatusCode, b, nil
}

// search issues q and reports whether the answer was exactly right,
// and the size of the body that carried it.
func (c *client) search(q *query) (ok bool, size int) {
	status, body, err := c.do(http.MethodGet, q.url, "")
	return err == nil && status == http.StatusOK && checkSearch(body, q), len(body)
}

// sample is one timed operation.
type sample struct {
	ns    int64
	class uint8
	ok    bool
}

// tally is what a load phase observed.
type tally struct {
	samples   []sample
	respBytes int64   // Σ response body sizes
	lagNS     []int64 // open loop: how late each send left, ns
	elapsed   time.Duration
	clientCPU time.Duration
}

func (t *tally) attempted() int { return len(t.samples) }

func (t *tally) failed() int {
	n := 0
	for _, s := range t.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// okPerSec is verified-correct operations per second.
func (t *tally) okPerSec() float64 {
	return float64(t.attempted()-t.failed()) / t.elapsed.Seconds()
}

// latencies returns the ascending latencies, in ms, of the correct
// operations of a class (class < 0: all classes).
func (t *tally) latencies(class int) []float64 {
	var out []float64
	for _, s := range t.samples {
		if s.ok && (class < 0 || int(s.class) == class) {
			out = append(out, float64(s.ns)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.respBytes += o.respBytes
	t.lagNS = append(t.lagNS, o.lagNS...)
}

// percentile reads the p-quantile of an ascending slice (nearest rank).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// closedLoop replays qs against base with n clients, each sending its
// next query only once the previous one has been answered and checked.
// With d == 0 every client makes exactly one pass over its share of the
// set — the warm-up that precedes each timed phase.
func closedLoop(base string, qs []query, n int, d time.Duration) *tally {
	if n > maxConns {
		panic(fmt.Sprintf("closedLoop: %d clients exceeds the generator's %d connections", n, maxConns))
	}
	parts := make([]tally, n)
	cpu0, start := selfCPU(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for i := c; ; i += n {
				if d == 0 && i >= len(qs) || d > 0 && time.Since(start) >= d {
					return
				}
				q := &qs[i%len(qs)]
				t0 := time.Now()
				ok, size := cl.search(q)
				parts[c].samples = append(parts[c].samples, sample{time.Since(t0).Nanoseconds(), uint8(q.class), ok})
				parts[c].respBytes += int64(size)
			}
		}(c)
	}
	wg.Wait()
	out := &tally{elapsed: time.Since(start), clientCPU: selfCPU() - cpu0}
	for c := range parts {
		out.merge(&parts[c])
	}
	return out
}

// openLoop sends qs at a fixed rate for d, over at most maxConns
// connections, whether or not earlier requests have come back: request
// i is due at start + i/rate, and its latency runs from that due time,
// so a stall is charged to every request queued behind it.
func openLoop(base string, qs []query, rate float64, d time.Duration) *tally {
	total := int64(d.Seconds() * rate)
	gap := time.Duration(float64(time.Second) / rate)
	parts := make([]tally, maxConns)
	var next atomic.Int64
	cpu0, start := selfCPU(), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			for {
				i := next.Add(1) - 1
				if i >= total {
					return
				}
				due := start.Add(time.Duration(i) * gap)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				q := &qs[int(i)%len(qs)]
				sent := time.Now()
				ok, size := cl.search(q)
				parts[c].samples = append(parts[c].samples, sample{time.Since(due).Nanoseconds(), uint8(q.class), ok})
				parts[c].respBytes += int64(size)
				parts[c].lagNS = append(parts[c].lagNS, sent.Sub(due).Nanoseconds())
			}
		}(c)
	}
	wg.Wait()
	out := &tally{elapsed: time.Since(start), clientCPU: selfCPU() - cpu0}
	for c := range parts {
		out.merge(&parts[c])
	}
	return out
}
