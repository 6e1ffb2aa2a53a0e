package load

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
)

// Class is the verdict on one response.
type Class int

const (
	// ClassCorrect: the response matched the precomputed ground truth
	// exactly.
	ClassCorrect Class = iota
	// ClassShed: a clean 429/503 carrying Retry-After — the documented
	// overload answer.
	ClassShed
	// ClassDegradedPartial: a subset answer inside a declared degraded
	// window — the documented salvage-mode answer.
	ClassDegradedPartial
	// ClassBlast: a transport error or 5xx inside a declared blast
	// window (the server was being killed/restarted).
	ClassBlast
	// ClassIncorrect: a well-formed 200 whose payload contradicts the
	// ground truth on a healthy server. Always a correctness bug.
	ClassIncorrect
	// ClassError: everything unclassified — transport errors and 5xx
	// outside blast windows, 429/503 without Retry-After, unparseable
	// bodies.
	ClassError
)

var classNames = [...]string{"correct", "shed", "degradedPartial", "blast", "incorrect", "error"}

func (c Class) String() string { return classNames[c] }

// Options tunes a load run.
type Options struct {
	BaseURL     string        // target server, e.g. http://127.0.0.1:8080
	Rate        float64       // offered load, queries/second (open loop)
	Duration    time.Duration // wall-clock run length
	Timeout     time.Duration // per-request client budget (default 2s)
	MaxInFlight int           // client-side connection cap (default 512)
	Seed        int64         // query replay order
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 512
	}
	if o.Rate <= 0 {
		o.Rate = 100
	}
	if o.Duration <= 0 {
		o.Duration = 10 * time.Second
	}
	return o
}

// collector accumulates per-request outcomes with atomics so the
// request goroutines never serialize.
type collector struct {
	classes  [len(classNames)]atomic.Int64
	statuses [6]atomic.Int64
	fiveXX   atomic.Int64 // 5xx outside blast windows
	overall  hist.Histogram
	steady   hist.Histogram // excludes requests overlapping blast windows

	mu       sync.Mutex
	failures []Failure // first few incorrect/unclassified, for the report
}

// Failure is one reportable bad response.
type Failure struct {
	Class  string    `json:"class"`
	Mode   string    `json:"mode,omitempty"`
	Terms  string    `json:"terms,omitempty"`
	Status int       `json:"status,omitempty"`
	Detail string    `json:"detail"`
	At     time.Time `json:"at"`
}

func (c *collector) fail(class Class, q *Query, status int, detail string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.failures) >= 20 {
		return
	}
	f := Failure{Class: class.String(), Status: status, Detail: detail, At: time.Now()}
	if q != nil {
		f.Mode, f.Terms = q.Mode, strings.Join(q.Terms, " ")
	}
	c.failures = append(c.failures, f)
}

// searchBody is the minimal /search response shape the checker needs.
type searchBody struct {
	Docs   []uint32 `json:"docs"`
	Ranked []struct {
		Doc   uint32 `json:"Doc"`
		Score int    `json:"Score"`
	} `json:"ranked"`
}

// Run replays the workload open-loop against opt.BaseURL: request i is
// launched at start + i/rate regardless of how previous requests are
// faring, and every latency is measured from that intended start — the
// coordinated-omission-safe discipline (a stalled server accrues the
// stall in every pending sample instead of silently suppressing
// arrivals). win may be nil when no chaos runs alongside.
//
// Run returns when the schedule is exhausted and all in-flight
// requests have completed, or earlier on ctx cancellation.
func Run(ctx context.Context, w *Workload, opt Options, win *Windows) (*Report, error) {
	opt = opt.withDefaults()
	if len(w.Queries) == 0 {
		return nil, fmt.Errorf("load: empty workload")
	}
	if win == nil {
		win = NewWindows()
	}
	client := &http.Client{
		Timeout: opt.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        opt.MaxInFlight,
			MaxIdleConnsPerHost: opt.MaxInFlight,
			IdleConnTimeout:     time.Minute,
		},
	}
	defer client.CloseIdleConnections()

	interval := time.Duration(float64(time.Second) / opt.Rate)
	total := int(opt.Duration / interval)
	if total < 1 {
		total = 1
	}
	// Pre-draw the query sequence so workers never contend on the rng.
	rng := rand.New(rand.NewSource(opt.Seed))
	order := make([]int32, total)
	for i := range order {
		order[i] = int32(rng.Intn(len(w.Queries)))
	}

	var (
		col   collector
		wg    sync.WaitGroup
		sem   = make(chan struct{}, opt.MaxInFlight)
		start = time.Now()
	)
	launched := 0
schedule:
	for i := 0; i < total; i++ {
		sched := start.Add(time.Duration(i) * interval)
		if d := time.Until(sched); d > 0 {
			select {
			case <-ctx.Done():
				break schedule
			case <-time.After(d):
			}
		} else if ctx.Err() != nil {
			break schedule
		}
		q := &w.Queries[order[i]]
		launched++
		wg.Add(1)
		go func(q *Query, sched time.Time) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			doOne(client, opt.BaseURL, q, sched, win, &col)
		}(q, sched)
	}
	wg.Wait()
	finished := time.Now()

	rep := &Report{
		Target:          opt.BaseURL,
		Seed:            opt.Seed,
		RateQPS:         opt.Rate,
		DurationNs:      int64(opt.Duration),
		Started:         start,
		Finished:        finished,
		Requests:        int64(launched),
		Classes:         map[string]int64{},
		Statuses:        map[string]int64{},
		Overall:         col.overall.Summarize(),
		Steady:          col.steady.Summarize(),
		Windows:         win.Records(),
		Failures:        col.failures,
		FiveXXOnHealthy: col.fiveXX.Load(),
	}
	for c, name := range classNames {
		if n := col.classes[c].Load(); n > 0 {
			rep.Classes[name] = n
		}
	}
	names := [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}
	for i := 1; i < 6; i++ {
		if n := col.statuses[i].Load(); n > 0 {
			rep.Statuses[names[i]] = n
		}
	}
	return rep, nil
}

// doOne issues one request and classifies the response. Latency runs
// from the scheduled start (open loop), through any client-side queue
// wait, to the last body byte.
func doOne(client *http.Client, base string, q *Query, sched time.Time, win *Windows, col *collector) {
	u := base + "/search?mode=" + q.Mode + "&q=" + url.QueryEscape(strings.Join(q.Terms, " "))
	if q.Mode == "topk" {
		u += "&k=" + strconv.Itoa(q.K)
	}
	resp, err := client.Get(u)
	var (
		status int
		body   []byte
	)
	if err == nil {
		status = resp.StatusCode
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	lat := end.Sub(sched)
	col.overall.Record(lat)
	inBlast := win.InBlast(sched, end)
	if !inBlast {
		col.steady.Record(lat)
	}

	if err != nil {
		if inBlast {
			col.classes[ClassBlast].Add(1)
		} else {
			col.classes[ClassError].Add(1)
			col.fail(ClassError, q, 0, "transport: "+err.Error())
		}
		return
	}
	if class := status / 100; class >= 1 && class <= 5 {
		col.statuses[class].Add(1)
	}

	switch {
	case status == http.StatusOK:
		col.classify200(q, body, sched, end, win)
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		if resp.Header.Get("Retry-After") != "" {
			col.classes[ClassShed].Add(1)
		} else if inBlast {
			col.classes[ClassBlast].Add(1)
		} else {
			col.classes[ClassError].Add(1)
			col.fail(ClassError, q, status, "shed response without Retry-After")
		}
	case status >= 500:
		if inBlast {
			col.classes[ClassBlast].Add(1)
		} else {
			col.fiveXX.Add(1)
			col.classes[ClassError].Add(1)
			col.fail(ClassError, q, status, "5xx on healthy server: "+truncate(body))
		}
	default:
		if inBlast {
			col.classes[ClassBlast].Add(1)
		} else {
			col.classes[ClassError].Add(1)
			col.fail(ClassError, q, status, "unexpected status: "+truncate(body))
		}
	}
}

// classify200 checks a 200 payload against the query's ground truth.
func (col *collector) classify200(q *Query, body []byte, sched, end time.Time, win *Windows) {
	var sb searchBody
	if err := json.Unmarshal(body, &sb); err != nil {
		col.classes[ClassError].Add(1)
		col.fail(ClassError, q, 200, "unparseable body: "+err.Error())
		return
	}
	got := sb.Docs
	if q.Mode == "topk" {
		got = make([]uint32, len(sb.Ranked))
		for i, r := range sb.Ranked {
			got[i] = r.Doc
		}
	}
	switch {
	case equalU32(got, q.Expected):
		col.classes[ClassCorrect].Add(1)
	case win.InDegraded(sched, end) && q.partialOK(got):
		col.classes[ClassDegradedPartial].Add(1)
	default:
		col.classes[ClassIncorrect].Add(1)
		col.fail(ClassIncorrect, q, 200,
			fmt.Sprintf("got %d docs, expected %d (degradedWindow=%v)", len(got), len(q.Expected), win.InDegraded(sched, end)))
	}
}

func truncate(b []byte) string {
	const n = 160
	if len(b) > n {
		b = b[:n]
	}
	return strings.TrimSpace(string(b))
}
