package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/index"
	"repro/internal/shard"
)

// route-mixed is the scale-out topology as deployed: bvindex splits
// C300 into two document-partitioned shards, two bvserve processes
// serve them with the decoded cache off (so OR takes the native
// compressed-union path the cached workloads never touch), and a real
// bvrouter with one replica per shard — hedging has nowhere to go —
// fans out and merges. Phase A is a closed loop (a caller that waits:
// measured fleet capacity); phase B is an open loop at the fixed rate
// routeRateQPS (independent users), timed from each scheduled send.

// fleet is the three processes of one set-up.
type fleet struct {
	shards [2]*proc
	router *proc
	files  [2]string
}

func (f *fleet) stop() {
	for _, p := range []*proc{f.router, f.shards[0], f.shards[1]} {
		if p != nil {
			p.stop()
		}
	}
}

func (f *fleet) procs() []*proc { return []*proc{f.shards[0], f.shards[1], f.router} }

func startFleet(r *run, fx *fixture, dir string) (*fleet, error) {
	f := &fleet{}
	if err := r.rig.run("bvindex", "-build", "-in", fx.docs, "-partition", "2",
		"-out", filepath.Join(dir, "shards.json"), "-codec", "auto", "-format", "bvix3+impacts"); err != nil {
		return nil, err
	}
	var err error
	for s := range f.shards {
		f.files[s] = filepath.Join(dir, shard.FileName(s))
		if f.shards[s], err = r.rig.start("bvserve", "-index", f.files[s], "-cache-mb", "0"); err != nil {
			f.stop()
			return nil, err
		}
	}
	if f.router, err = r.rig.start("bvrouter", "-shards", f.shards[0].base+";"+f.shards[1].base); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// routerStats is the part of bvrouter's /stats the benchmark reads.
type routerStats struct {
	PartialAnswers int64 `json:"partialAnswers"`
	PerShard       []struct {
		Latency struct {
			P99Ns int64 `json:"p99Ns"`
		} `json:"latency"`
	} `json:"perShard"`
}

func runRoute(r *run) error {
	fx, err := r.newFixture(c300, mixMixed)
	if err != nil {
		return err
	}
	dir, err := r.rig.subdir("shards")
	if err != nil {
		return err
	}
	var fl *fleet
	var setups []float64
	for rep := 0; rep < r.setupReps(); rep++ {
		if fl != nil {
			fl.stop()
		}
		t0 := time.Now()
		if fl, err = startFleet(r, fx, dir); err != nil {
			return err
		}
		if err := r.firstAnswer(fl.router.base, &fx.qs[0]); err != nil {
			fl.stop()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fl.stop()

	r.tallied(closedLoop(fl.router.base, fx.qs, maxConns, 0)) // warm-up pass
	if r.traced {
		return traceRoute(r, fx, fl)
	}
	a := r.tallied(closedLoop(fl.router.base, fx.qs, maxConns, r.seconds*2/5))
	b := r.tallied(openLoop(fl.router.base, fx.qs, routeRateQPS, r.seconds*3/5))

	var compressed int64
	rss := 0.0
	for _, p := range fl.procs() {
		rss += p.rssPeakMB()
	}
	for _, p := range fl.shards {
		var st serveStats
		if err := getJSON(p.base+"/stats", &st); err != nil {
			return err
		}
		compressed += st.CompressedBytes
	}
	lat := b.latencies(-1)
	r.set("setup_s", median(setups), len(setups))
	r.set("throughput_qps", a.okPerSec(), a.attempted())
	r.set("latency_p50_ms", percentile(lat, 0.50), len(lat))
	r.set("latency_p95_ms", percentile(lat, 0.95), len(lat))
	r.set("bits_per_int", 8*float64(compressed)/float64(fx.tr.postings), fx.tr.postings)
	r.set("rss_peak_mb", rss, len(fl.procs()))
	return nil
}

func traceRoute(r *run, fx *fixture, fl *fleet) error {
	cpu := func() (router, shards time.Duration) {
		return fl.router.cpu(), fl.shards[0].cpu() + fl.shards[1].cpu()
	}
	r0, s0 := cpu()
	a := r.tallied(closedLoop(fl.router.base, fx.qs, maxConns, r.seconds/5))
	r1, s1 := cpu()
	processMetrics(r, "bvrouter", r1-r0, a)
	r.set("bvserve.cpu_ms_per_query", (s1-s0).Seconds()*1e3/float64(max(a.attempted(), 1)), a.attempted())
	lat := a.latencies(-1)
	r.set("route.closed_p50_ms", percentile(lat, 0.50), len(lat))
	r.set("route.closed_p99_ms", percentile(lat, 0.99), len(lat))

	b := r.tallied(openLoop(fl.router.base, fx.qs, routeRateQPS, r.seconds/5))
	lag := make([]float64, len(b.lagNS))
	for i, ns := range b.lagNS {
		lag[i] = float64(ns) / 1e6
	}
	sort.Float64s(lag)
	r.set("loadgen.sched_lag_p99_ms", percentile(lag, 0.99), len(lag))

	var st routerStats
	if err := getJSON(fl.router.base+"/stats", &st); err != nil {
		return err
	}
	worst := 0.0
	for _, s := range st.PerShard {
		worst = max(worst, float64(s.Latency.P99Ns)/1e6)
	}
	r.set("shard.per_shard_p99_ms", worst, len(st.PerShard))
	r.set("shard.partial_count", float64(st.PartialAnswers), a.attempted()+b.attempted())

	// The ladder: the same two shard files opened in-process, no cache,
	// as the shard servers run them.
	var idx [2]*index.Index
	for s := range idx {
		var err error
		if idx[s], err = index.OpenFile(fl.files[s]); err != nil {
			return err
		}
		defer idx[s].Close()
	}
	local := func(copies int) [][]shard.Backend {
		reps := make([][]shard.Backend, len(idx))
		for s := range idx {
			for c := 0; c < copies; c++ {
				reps[s] = append(reps[s], &shard.IndexBackend{Idx: idx[s], Label: fmt.Sprintf("s%d-r%d", s, c)})
			}
		}
		return reps
	}
	newRouter := func(cfg shard.RouterConfig, reps [][]shard.Backend) *shard.Router {
		rt, err := shard.NewRouter(cfg, reps)
		if err != nil {
			panic(err) // two shards with replicas: cannot fail
		}
		return rt
	}
	inproc := newRouter(shard.RouterConfig{}, local(1))
	overHTTP := newRouter(shard.RouterConfig{}, [][]shard.Backend{
		{&shard.HTTPBackend{Base: fl.shards[0].base}}, {&shard.HTTPBackend{Base: fl.shards[1].base}},
	})
	request := func(q *query) shard.Request { return shard.Request{Mode: q.mode, Terms: q.names, K: q.k} }
	merged := func(q *query, m shard.Merged, err error) (map[string]int, bool) {
		if err != nil || m.Partial {
			return nil, false
		}
		if q.mode == "topk" {
			return map[string]int{"ranked": len(m.Ranked)}, sameRanked(m.Ranked, q.ranked)
		}
		return q.gotDocs(m.Docs, nil)
	}
	ctx := context.Background()
	var skew []float64
	fanout := rung{"shard.fanout", func(q *query) (map[string]int, bool) {
		var took [2]time.Duration
		var errs [2]error
		var wg sync.WaitGroup
		for s, reps := range local(1) {
			wg.Add(1)
			go func(s int, b shard.Backend) {
				defer wg.Done()
				t0 := time.Now()
				_, errs[s] = b.Search(ctx, request(q))
				took[s] = time.Since(t0)
			}(s, reps[0])
		}
		wg.Wait()
		if mean := (took[0] + took[1]).Seconds() / 2; mean > 0 {
			skew = append(skew, max(took[0], took[1]).Seconds()/mean)
		}
		return map[string]int{"shard0_ns": int(took[0]), "shard1_ns": int(took[1])}, errs[0] == nil && errs[1] == nil
	}}
	routerRung := rung{"shard.router", func(q *query) (map[string]int, bool) {
		m, err := inproc.Search(ctx, request(q))
		return merged(q, m, err)
	}}
	httpRung := rung{"shard.router_http", func(q *query) (map[string]int, bool) {
		m, err := overHTTP.Search(ctx, request(q))
		return merged(q, m, err)
	}}
	cl := newClient(fl.router.base)
	defer cl.close()
	procRung := rung{"bvrouter", func(q *query) (map[string]int, bool) {
		ok, size := cl.search(q)
		return map[string]int{"bytes": size}, ok
	}}
	rungs := []rung{fanout, routerRung, httpRung, procRung}
	qs := fx.qs[:ladderQueries]
	// The shard processes are warm from the load phases; only the
	// in-process mappings still have first touches to get out of the way.
	r.climb(time.Now(), rungs[:2], qs, false)
	skew = skew[:0]
	lad := r.climb(time.Now(), rungs, qs, true)
	r.set("shard.router_inproc_us", lad.mean(1)/1e3, len(qs))
	r.set("shard.merge_self_us", lad.selfMean(1)/1e3, len(qs))
	r.set("shard.http_backend_self_us", lad.selfMean(2)/1e3, len(qs))
	r.set("shard.router_proc_self_ms", lad.selfMean(3)/1e6, len(qs))
	sum := 0.0
	for _, v := range skew {
		sum += v
	}
	r.set("shard.fanout_skew_frac", sum/float64(max(len(skew), 1)), len(skew))

	// What hedging costs when nothing is slow: 2 shards x 2 replicas,
	// in-process, hedge off against hedge on.
	for _, h := range []struct {
		name string
		on   bool
	}{{"shard.hedge_off_p50_us", false}, {"shard.hedge_on_p50_us", true}} {
		rt := newRouter(shard.RouterConfig{Hedge: h.on}, local(2))
		var us []float64
		for i := range qs {
			t0 := time.Now()
			m, err := rt.Search(ctx, request(&qs[i]))
			us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
			_, ok := merged(&qs[i], m, err)
			r.check(ok)
		}
		r.set(h.name, median(us), len(us))
	}
	r.traceOverhead(rungs, qs)
	return nil
}
