package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/index"
	"repro/internal/ops"
)

// RouterConfig tunes scatter-gather behavior. Zero values pick
// serving-safe defaults.
type RouterConfig struct {
	// Hedge enables hedged requests: after an adaptive delay (the
	// shard's observed p99 completion latency, clamped to
	// [HedgeMin, HedgeMax]), a backup attempt fires on a different
	// replica and the first success cancels the loser. Off by default;
	// only effective on shards with >1 replica.
	Hedge    bool
	HedgeMin time.Duration // lower clamp on the hedge delay (default 1ms)
	HedgeMax time.Duration // upper clamp, also the cold-start delay (default 50ms)

	// ShardTimeout bounds one shard's whole scatter leg — all attempts
	// included (default 2s). A shard that exhausts it is degraded for
	// that query, not an error for the query.
	ShardTimeout time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.HedgeMin <= 0 {
		c.HedgeMin = time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = 50 * time.Millisecond
	}
	if c.HedgeMax < c.HedgeMin {
		c.HedgeMax = c.HedgeMin
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Second
	}
	return c
}

// replica is one Backend plus the load gauge pick-of-two reads.
type replica struct {
	backend  Backend
	inflight atomic.Int64
}

// shardState is the router's view of one shard: its replicas, the
// completion-latency histogram that drives the adaptive hedge delay,
// and the counters /stats exposes.
type shardState struct {
	id        int
	replicas  []*replica
	lat       hist.Histogram // per-query completion latency (first success)
	hedged    atomic.Int64   // backup attempts fired
	hedgeWins atomic.Int64   // queries where the backup finished first
	degraded  atomic.Int64   // queries this shard failed entirely
}

// pick selects a replica by load-based pick-of-two: two random distinct
// candidates, the one with fewer in-flight requests wins, ties go to
// the first random pick. Deliberately load-only, never latency-based: a
// slow-but-alive replica keeps receiving traffic (hedging is what
// rescues its tail), while a replica drowning in requests is avoided.
// not (when non-nil) excludes the replica already attempted.
func (s *shardState) pick(not *replica) *replica {
	cands := s.replicas
	if not != nil {
		cands = make([]*replica, 0, len(s.replicas)-1)
		for _, r := range s.replicas {
			if r != not {
				cands = append(cands, r)
			}
		}
	}
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return cands[0]
	}
	a := cands[rand.Intn(len(cands))]
	b := cands[rand.Intn(len(cands))]
	for b == a {
		b = cands[rand.Intn(len(cands))]
	}
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// hedgeDelay is the adaptive backup-fire delay: the shard's observed
// p99 completion latency, clamped. Cold start (no observations) waits
// the full HedgeMax so an idle router never opens with a hedging storm.
func (s *shardState) hedgeDelay(cfg RouterConfig) time.Duration {
	d := s.lat.Percentile(0.99)
	if d <= 0 {
		return cfg.HedgeMax
	}
	if d < cfg.HedgeMin {
		return cfg.HedgeMin
	}
	if d > cfg.HedgeMax {
		return cfg.HedgeMax
	}
	return d
}

// backendPanic carries a Backend's panic out of its attempt goroutine —
// where it would kill the process — so Router.Search can re-raise it on
// the caller's goroutine, where the HTTP front's recovery turns it into
// a logged 500.
type backendPanic struct {
	value any
	stack []byte
}

func (p *backendPanic) Error() string {
	return fmt.Sprintf("shard: backend panic: %v\n%s", p.value, p.stack)
}

// search runs one shard's scatter leg: primary attempt on the
// pick-of-two replica, hedged backup after the adaptive delay (or
// immediate failover if the primary fails fast), first success wins
// and cancels the loser through ctx. An *index.BadRequest (or a
// backendPanic) from any attempt ends the leg at once and comes back
// unwrapped: the request would fail the same way on every replica, so
// there is nothing to fail over to and the shard is not degraded.
func (s *shardState) search(ctx context.Context, req Request, cfg RouterConfig) (index.Answer, error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.ShardTimeout)
	defer cancel()
	start := time.Now()

	type attempt struct {
		res    index.Answer
		err    error
		backup bool
	}
	// Buffered to the attempt cap so a losing goroutine can always
	// deliver and exit after the winner returns.
	ch := make(chan attempt, 2)
	launch := func(r *replica, backup bool) {
		r.inflight.Add(1)
		go func() {
			defer r.inflight.Add(-1)
			defer func() {
				if p := recover(); p != nil {
					ch <- attempt{err: &backendPanic{p, debug.Stack()}}
				}
			}()
			res, err := r.backend.Search(ctx, req)
			ch <- attempt{res: res, err: err, backup: backup}
		}()
	}
	primary := s.pick(nil)
	if primary == nil {
		return index.Answer{}, fmt.Errorf("shard %d: no replicas", s.id)
	}
	launch(primary, false)

	var hedgeC <-chan time.Time
	if cfg.Hedge && len(s.replicas) > 1 {
		t := time.NewTimer(s.hedgeDelay(cfg))
		defer t.Stop()
		hedgeC = t.C
	}

	pending, launched := 1, 1
	var firstErr error
	for {
		select {
		case <-hedgeC:
			hedgeC = nil
			if backup := s.pick(primary); backup != nil {
				s.hedged.Add(1)
				launch(backup, true)
				pending++
				launched++
			}
		case a := <-ch:
			pending--
			if a.err == nil {
				cancel() // the loser, if any, is abandoned
				s.lat.Record(time.Since(start))
				if a.backup {
					s.hedgeWins.Add(1)
				}
				return a.res, nil
			}
			var bad *index.BadRequest
			var pan *backendPanic
			if errors.As(a.err, &bad) || errors.As(a.err, &pan) {
				return index.Answer{}, a.err
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if pending > 0 {
				continue
			}
			// Every launched attempt failed. Fail over to an untried
			// replica if one exists (a dead primary should not cost the
			// query its hedge delay); with at most 2 attempts total the
			// failover target is simply "not the primary".
			if launched < 2 && len(s.replicas) > 1 {
				hedgeC = nil
				if next := s.pick(primary); next != nil {
					launch(next, true)
					pending++
					launched++
					continue
				}
			}
			s.degraded.Add(1)
			return index.Answer{}, fmt.Errorf("shard %d: %w", s.id, firstErr)
		case <-ctx.Done():
			// The shard budget is gone with attempts still in flight;
			// their goroutines deliver into the buffered channel and exit
			// on their own.
			s.degraded.Add(1)
			return index.Answer{}, fmt.Errorf("shard %d: %w", s.id, ctx.Err())
		}
	}
}

// Router fans queries out to every shard in parallel and merges the
// per-shard answers exactly. One Router is safe for concurrent use.
type Router struct {
	cfg     RouterConfig
	shards  []*shardState
	queries atomic.Int64 // Search calls
	partial atomic.Int64 // of those, answered with Partial set
}

// NewRouter builds a router over replicas[shard][replica]. Every shard
// needs at least one replica.
func NewRouter(cfg RouterConfig, replicas [][]Backend) (*Router, error) {
	if len(replicas) < 1 || len(replicas) > MaxShards {
		return nil, fmt.Errorf("shard: router needs 1..%d shards, got %d", MaxShards, len(replicas))
	}
	r := &Router{cfg: cfg.withDefaults()}
	for i, reps := range replicas {
		if len(reps) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", i)
		}
		st := &shardState{id: i}
		for _, b := range reps {
			st.replicas = append(st.replicas, &replica{backend: b})
		}
		r.shards = append(r.shards, st)
	}
	return r, nil
}

// Shards reports the shard count N of the partition this router serves.
func (r *Router) Shards() int { return len(r.shards) }

// Search scatters req to every shard, gathers, and merges exactly:
// shards partition the documents and GlobalID is strictly increasing
// per shard, so the union of the mapped postings is the single-index
// list and the best k of the mapped per-shard top-k lists (k pushed
// down) is the single-index ranking, both restricted to the shards
// that answered. It fails only when every shard fails or the request
// itself is bad; any partial set of responses yields a Merged with
// Partial set and the dead shards listed. Backends' answers are mapped
// to global ids in place — a Backend must return slices it owns.
func (r *Router) Search(ctx context.Context, req Request) (Merged, error) {
	r.queries.Add(1)
	n := len(r.shards)
	answers := make([]index.Answer, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, st := range r.shards {
		wg.Add(1)
		go func(i int, st *shardState) {
			defer wg.Done()
			answers[i], errs[i] = st.search(ctx, req, r.cfg)
		}(i, st)
	}
	wg.Wait()

	m := Merged{Shards: n}
	var stats ops.TopKStats
	docs := make([][]uint32, 0, n)
	ranked := make([][]index.Result, 0, n)
	for s, a := range answers {
		var bad *index.BadRequest
		var pan *backendPanic
		switch {
		case errors.As(errs[s], &pan):
			panic(pan)
		case errors.As(errs[s], &bad):
			return Merged{}, bad
		case errs[s] != nil:
			m.Partial = true
			m.Degraded = append(m.Degraded, s)
			continue
		}
		for i := range a.Docs {
			a.Docs[i] = GlobalID(a.Docs[i], s, n)
		}
		for i := range a.Ranked {
			a.Ranked[i].Doc = GlobalID(a.Ranked[i].Doc, s, n)
		}
		docs = append(docs, a.Docs)
		ranked = append(ranked, a.Ranked)
		if a.TopK != nil {
			stats.Add(*a.TopK)
		}
	}
	if len(m.Degraded) == n {
		return Merged{}, fmt.Errorf("shard: all %d shards failed: %w: %w", n, index.ErrUnavailable, errs[0])
	}
	if m.Partial {
		r.partial.Add(1)
	}
	if req.Mode == "topk" {
		m.Ranked, m.TopK = ops.MergeRanked(ranked, req.K), &stats
	} else {
		m.Docs = ops.UnionMany(docs)
	}
	return m, nil
}

// ReplicaStats is one replica's load gauge, for /stats.
type ReplicaStats struct {
	Name     string `json:"name"`
	InFlight int64  `json:"inFlight"`
}

// ShardStats is one shard's /stats row: completion-latency percentiles,
// hedge counters, degraded count, and the hedge delay the next query
// would use.
type ShardStats struct {
	Shard        int            `json:"shard"`
	Replicas     []ReplicaStats `json:"replicas"`
	Latency      hist.Summary   `json:"latency"`
	Hedged       int64          `json:"hedged"`
	HedgeWins    int64          `json:"hedgeWins"`
	Degraded     int64          `json:"degraded"`
	HedgeDelayMS float64        `json:"hedgeDelayMs"`
}

// Stats snapshots every shard's counters.
func (r *Router) Stats() []ShardStats {
	out := make([]ShardStats, 0, len(r.shards))
	for _, st := range r.shards {
		ss := ShardStats{
			Shard:        st.id,
			Latency:      st.lat.Summarize(),
			Hedged:       st.hedged.Load(),
			HedgeWins:    st.hedgeWins.Load(),
			Degraded:     st.degraded.Load(),
			HedgeDelayMS: float64(st.hedgeDelay(r.cfg)) / float64(time.Millisecond),
		}
		for _, rep := range st.replicas {
			ss.Replicas = append(ss.Replicas, ReplicaStats{Name: rep.backend.Name(), InFlight: rep.inflight.Load()})
		}
		out = append(out, ss)
	}
	return out
}

// Gauges adds the router's /stats keys: router-level counters plus the
// per-shard rows (latency percentiles, hedges fired/won, degraded
// queries, per-replica in-flight). With Healthz it makes *Router a
// server.Backend.
func (r *Router) Gauges(body map[string]interface{}) {
	body["shards"] = r.Shards()
	body["queries"] = r.queries.Load()
	body["partialAnswers"] = r.partial.Load()
	body["perShard"] = r.Stats()
}

// Healthz live-probes every replica. Full coverage is "ok"; shards with
// no healthy replica make the fleet "partial" (still 200 — the router
// is alive and serving what it can); zero healthy shards is "down" with
// 503.
func (r *Router) Healthz(ctx context.Context) (int, interface{}) {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	down := r.Health(ctx)
	if len(down) == 0 {
		return http.StatusOK, map[string]interface{}{"status": "ok", "shards": r.Shards()}
	}
	status, code := "partial", http.StatusOK
	if len(down) == r.Shards() {
		status, code = "down", http.StatusServiceUnavailable
	}
	return code, map[string]interface{}{"status": status, "shards": r.Shards(), "shardsDown": down}
}

// Health probes every replica of every shard in parallel and returns
// the ids of shards with no healthy replica. An empty slice means the
// full partition is answerable.
func (r *Router) Health(ctx context.Context) []int {
	downCh := make(chan int, len(r.shards))
	var wg sync.WaitGroup
	for _, st := range r.shards {
		wg.Add(1)
		go func(st *shardState) {
			defer wg.Done()
			for _, rep := range st.replicas {
				if rep.backend.Health(ctx) == nil {
					return
				}
			}
			downCh <- st.id
		}(st)
	}
	wg.Wait()
	close(downCh)
	down := []int{}
	for id := range downCh {
		down = append(down, id)
	}
	sortInts(down)
	return down
}

// sortInts is a tiny insertion sort for the short shard-id slices
// Health returns (avoids pulling in sort for one call site).
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
