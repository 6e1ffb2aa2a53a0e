package shard

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"net/http"
	"runtime/debug"
	"slices"
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
	maxLocal  uint32 // the largest local docid GlobalID maps without wrapping
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
			if err == nil {
				err = s.checkLocal(res, r.backend)
			}
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

// checkLocal refuses an answer holding a local docid above s.maxLocal,
// which GlobalID would wrap onto another shard's document: the replica
// has failed, and the leg fails over or degrades the shard.
func (s *shardState) checkLocal(a index.Answer, b Backend) error {
	top := uint32(0)
	for _, d := range a.Docs {
		top = max(top, d)
	}
	if a.Words != nil {
		if _, hi, ok := a.Words.Bounds(); ok {
			top = max(top, hi)
		}
	}
	for _, x := range a.Ranked {
		top = max(top, x.Doc)
	}
	if top > s.maxLocal {
		return fmt.Errorf("shard: %s answered local docid %d, above shard %d's largest %d", b.Name(), top, s.id, s.maxLocal)
	}
	return nil
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
		st := &shardState{id: i, maxLocal: (math.MaxUint32 - uint32(i)) / uint32(len(replicas))}
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
// to global ids in place — a Backend must return slices it owns. With
// req.Words set, a dense boolean answer is merged as words
// (mergeWords).
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
	answered := make([]int, 0, n)
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
		answered = append(answered, s)
		for i := range a.Ranked {
			a.Ranked[i].Doc = GlobalID(a.Ranked[i].Doc, s, n)
		}
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
	switch {
	case req.Mode == "topk":
		m.Ranked, m.TopK = ops.MergeRanked(ranked, req.K), &stats
	case req.Words:
		if m.Words = mergeWords(answers, answered, n); m.Words == nil {
			m.Docs = mergeDocs(answers, answered, n)
		}
	default:
		m.Docs = mergeDocs(answers, answered, n)
	}
	return m, nil
}

// mergeDocs maps every answering shard's docids to global ids in place
// (a shard's words become docids first) and unions them.
func mergeDocs(answers []index.Answer, answered []int, n int) []uint32 {
	docs := make([][]uint32, 0, len(answered))
	for _, s := range answered {
		d := answers[s].Docs
		if answers[s].Words != nil {
			d = answers[s].Words.Docs()
		}
		for i := range d {
			d[i] = GlobalID(d[i], s, n)
		}
		docs = append(docs, d)
	}
	return ops.UnionMany(docs)
}

// mergeWords ORs every answering shard's docids, in global ids, into
// one word array, and returns it when the union is dense (ops.Dense);
// nil otherwise, for mergeDocs. A shard's words are spread at stride n
// (orShardWords: for n = 2 a 32→64-bit interleave per word), and its
// docids, from a JSON reply or a sparse answer, set their bits
// directly. No shard's answer becomes a docid list.
func mergeWords(answers []index.Answer, answered []int, n int) *ops.Words {
	total, lo, hi := 0, uint32(math.MaxUint32), uint32(0)
	for _, s := range answered {
		a := answers[s]
		var l, h uint32
		switch {
		case a.Words != nil:
			var ok bool
			if l, h, ok = a.Words.Bounds(); !ok {
				continue
			}
			total += a.Words.Len()
		case len(a.Docs) > 0:
			l, h = slices.Min(a.Docs), slices.Max(a.Docs)
			total += len(a.Docs)
		default:
			continue
		}
		lo, hi = min(lo, GlobalID(l, s, n)), max(hi, GlobalID(h, s, n))
	}
	if !ops.Dense(total, lo, hi) {
		return nil
	}
	base := lo &^ 0xffff
	out := make([]uint64, int((hi-base)>>6)+1)
	for _, s := range answered {
		if a := answers[s]; a.Words != nil {
			orShardWords(out, base, *a.Words, s, n)
		} else {
			for _, d := range a.Docs {
				setGlobal(out, base, GlobalID(d, s, n))
			}
		}
	}
	return &ops.Words{Base: base, W: out}
}

// setGlobal sets global docid g's bit in out, whose bit 0 is base.
func setGlobal(out []uint64, base, g uint32) {
	g -= base
	out[g>>6] |= 1 << (g & 63)
}

// orShardWords ORs shard s of n's words w into out, whose bit 0 is
// global docid base. Local docid v is global nv+s. For n = 2 local
// word j spreads into two global words: its low 32 bits onto the even
// (s = 0) or odd (s = 1) bits of the first, its high 32 bits onto the
// second; both bases are multiples of 2^16, so the first lands at a
// whole word, (2·w.Base − base)/64 + 2j, at or after out[0] for any
// non-zero word. Any other n places the set bits one by one.
func orShardWords(out []uint64, base uint32, w ops.Words, s, n int) {
	off := (int64(n)*int64(w.Base) - int64(base)) / 64 // whole for n = 2
	for j, x := range w.W {
		switch {
		case x == 0:
		case n == 2:
			i := off + 2*int64(j)
			out[i] |= spread(uint32(x)) << s
			if h := uint32(x >> 32); h != 0 {
				out[i+1] |= spread(h) << s
			}
		default:
			for ; x != 0; x &= x - 1 {
				setGlobal(out, base, GlobalID(w.Base+uint32(j)<<6+uint32(bits.TrailingZeros64(x)), s, n))
			}
		}
	}
}

// spread moves bit i of x to bit 2i of the result.
func spread(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	return (v | v<<1) & 0x5555555555555555
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
