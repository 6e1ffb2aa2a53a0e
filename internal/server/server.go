// Package server puts an index.Searcher — a static index snapshot, a
// live index, or a shard router — behind one hardened HTTP stack: the
// production deployment shell for the §A.1 search workload. All three
// share one /search handler, one middleware chain and one lifecycle; a
// serving mode contributes only its /stats and /healthz bodies and its
// mode-only routes (see mode). The package provides
//
//   - lifecycle: an http.Server with read/write/idle timeouts, graceful
//     context-driven shutdown with a drain deadline, and /healthz
//     (liveness) plus /readyz (readiness) probes;
//   - a middleware chain: panic recovery, per-request timeouts,
//     semaphore load shedding (429 + Retry-After), structured request
//     logging, and request validation limits so adversarial queries
//     cannot force unbounded intersection work;
//   - hot reload (static mode): the served index lives in a
//     reference-counted index.Snapshot behind an atomic.Pointer and is
//     swapped without dropping in-flight requests, with rollback to the
//     old index when the replacement fails to load. Each request
//     brackets its work in Acquire/Release, so a superseded snapshot is
//     Closed — releasing its mmap — exactly once, after the last
//     in-flight query drains.
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hist"
	"repro/internal/index"
)

// Config tunes the hardened server. Zero values pick serving-safe
// defaults, so Config{} is a reasonable production starting point.
type Config struct {
	ReadTimeout    time.Duration // full-request read budget (default 5s)
	WriteTimeout   time.Duration // response write budget (default 10s)
	IdleTimeout    time.Duration // keep-alive idle budget (default 2m)
	RequestTimeout time.Duration // per-request handler budget (default 5s)
	DrainDeadline  time.Duration // graceful-shutdown budget (default 10s)

	MaxInFlight   int // concurrent requests before shedding with 429 (default 64)
	MaxQueryTerms int // query terms before 400 (default 16)
	MaxK          int // top-k limit before 400 (default 1000)
	MaxURLBytes   int // request-URI bytes before 414 (default 8192)

	// IngestQueue bounds concurrently admitted write requests in live
	// mode (NewLive); excess writes are shed with 429 (default 128).
	IngestQueue int

	// CacheBytes bounds the decoded-posting cache shared across index
	// generations: hot terms skip decompression on repeat queries, and
	// hot reloads invalidate stale entries by generation. Default
	// 32 MiB; negative disables caching.
	CacheBytes int

	Logger *log.Logger // defaults to log.Default()

	// Routes, when set, registers extra application routes (debug
	// handlers, pprof, ...) on the hardened mux. They run inside the
	// full middleware chain.
	Routes func(mux *http.ServeMux)
}

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.ReadTimeout, 5*time.Second)
	def(&c.WriteTimeout, 10*time.Second)
	def(&c.IdleTimeout, 2*time.Minute)
	def(&c.RequestTimeout, 5*time.Second)
	def(&c.DrainDeadline, 10*time.Second)
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.MaxQueryTerms <= 0 {
		c.MaxQueryTerms = 16
	}
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.MaxURLBytes <= 0 {
		c.MaxURLBytes = 8192
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 32 << 20
	}
	if c.Logger == nil {
		c.Logger = log.Default()
	}
	return c
}

// ingestQueue is the live-mode write-admission depth.
func (c Config) ingestQueue() int {
	if c.IngestQueue <= 0 {
		return 128
	}
	return c.IngestQueue
}

// mode is everything that tells one way of serving from another. New,
// NewLive and NewFront each fill one in; the handlers never ask which.
type mode struct {
	// pin returns the Searcher that answers one /search request and the
	// release to call once the response is written.
	pin func() (index.Searcher, func())
	// stats adds the mode's keys to the /stats body.
	stats func(body map[string]interface{})
	// healthz answers the liveness probe: status code and JSON body.
	healthz func(ctx context.Context) (int, interface{})
	// routes registers the mode-only application routes; nil for none.
	routes func(app *http.ServeMux)
}

// Server serves queries from whatever its mode pins per request.
type Server struct {
	cfg  Config
	log  *log.Logger
	mode mode

	// Static mode (New): the hot-swappable snapshot and its cache.
	snap     atomic.Pointer[index.Snapshot]
	cache    *index.DecodedCache
	ready    atomic.Bool
	draining atomic.Bool
	inFlight atomic.Int64
	reloads  atomic.Int64
	// generation numbers the served snapshot, starting at 1 for the
	// index the server booted with and bumping on every successful hot
	// swap. /stats exposes it so an observer (the chaos harness, a
	// sharded router's operator) can assert WHICH index version answered
	// during a reload storm, not merely how many swaps happened.
	generation atomic.Int64
	sem        chan struct{}

	// Serving-side observability, exposed on /stats: a latency
	// histogram over every completed request, per-status-class counters,
	// and the load-shed (429) counter the chaos harness asserts against.
	// All are lock-free so the hot path never serializes on metrics.
	latency  hist.Histogram
	sheds    atomic.Int64
	statuses [6]atomic.Int64 // index = status/100 (1xx..5xx; 0 unused)

	reloadMu sync.Mutex
	loadFn   func() (*index.Index, error)

	// Live-ingestion mode (NewLive): the mutable index being served and
	// the bounded write-admission gate. nil/unused in static mode.
	live        *index.Live
	ingestSem   chan struct{}
	ingestSheds atomic.Int64
}

func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{cfg: cfg, log: cfg.Logger, sem: make(chan struct{}, cfg.MaxInFlight)}
}

// New returns a server in static mode: it serves idx (non-nil) from a
// hot-swappable snapshot and adds POST /reload.
func New(idx *index.Index, cfg Config) *Server {
	s := newServer(cfg)
	if s.cfg.CacheBytes > 0 {
		s.cache = index.NewDecodedCache(s.cfg.CacheBytes)
		idx.AttachCache(s.cache)
	}
	s.snap.Store(index.NewSnapshot(idx))
	s.generation.Store(1)
	s.mode = mode{
		pin: func() (index.Searcher, func()) {
			snap := s.acquire()
			return snap.Index(), snap.Release
		},
		stats:   s.staticStats,
		healthz: s.staticHealthz,
		routes:  func(app *http.ServeMux) { app.HandleFunc("/reload", s.handleReload) },
	}
	return s
}

// Backend is a Searcher that is not an index of this process — the
// shard router — with the /stats keys and /healthz answer only it can
// give. NewFront serves one.
type Backend interface {
	index.Searcher
	// Gauges adds the backend's keys to the /stats body.
	Gauges(body map[string]interface{})
	// Healthz answers the liveness probe: status code and JSON body.
	Healthz(ctx context.Context) (int, interface{})
}

// NewFront returns a server that fronts b: the same /search, limits,
// load shedding, panic recovery and lifecycle as the index modes, with
// no mode-only routes.
func NewFront(b Backend, cfg Config) *Server {
	s := newServer(cfg)
	s.mode = mode{
		pin:     func() (index.Searcher, func()) { return b, func() {} },
		stats:   b.Gauges,
		healthz: b.Healthz,
	}
	return s
}

// CacheStats reports decoded-posting cache effectiveness (zero value
// when caching is disabled).
func (s *Server) CacheStats() index.CacheStats {
	if s.cache == nil {
		return index.CacheStats{}
	}
	return s.cache.Stats()
}

// SetLoader installs the function Reload uses to load a replacement
// index. Call it before serving.
func (s *Server) SetLoader(fn func() (*index.Index, error)) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	s.loadFn = fn
}

// Index returns the index currently being served. The server's own
// reference keeps the current generation alive, so the pointer is safe
// to use for as long as it remains current; request handlers that may
// race a hot reload go through acquire instead. Static mode only.
func (s *Server) Index() *index.Index { return s.snap.Load().Index() }

// Snapshot returns the reference-counted handle on the current index
// generation. Diagnostics and tests only; handlers use acquire.
func (s *Server) Snapshot() *index.Snapshot { return s.snap.Load() }

// acquire takes a reference on the current snapshot for the duration of
// one request. Acquire can fail only in the narrow window where a
// snapshot was retired after we loaded the pointer but before we
// incremented its count — Reload stores the replacement before retiring
// the old generation, so a retry is guaranteed to observe a newer,
// live snapshot. The caller must Release the returned snapshot.
func (s *Server) acquire() *index.Snapshot {
	for {
		snap := s.snap.Load()
		if snap.Acquire() {
			return snap
		}
	}
}

// Ready reports whether the server is accepting application traffic
// (started and not draining).
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// Sheds reports how many requests were turned away with 429 by the
// load-shedding gate.
func (s *Server) Sheds() int64 { return s.sheds.Load() }

// LatencySummary reports request-latency percentiles over every
// completed request since startup.
func (s *Server) LatencySummary() hist.Summary { return s.latency.Summarize() }

// StatusCounts reports completed requests by status class ("2xx",
// "4xx", ...), omitting classes with no requests.
func (s *Server) StatusCounts() map[string]int64 {
	out := make(map[string]int64, 4)
	names := [6]string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}
	for i := 1; i < len(s.statuses); i++ {
		if n := s.statuses[i].Load(); n > 0 {
			out[names[i]] = n
		}
	}
	return out
}

// observe records one completed request in the latency histogram and
// status counters; logRequests calls it for every request, probes
// included.
func (s *Server) observe(status int, d time.Duration) {
	s.latency.Record(d)
	if class := status / 100; class >= 1 && class <= 5 {
		s.statuses[class].Add(1)
	}
}

// Reloads reports how many successful hot swaps have happened.
func (s *Server) Reloads() int64 { return s.reloads.Load() }

// Generation reports the serial number of the snapshot being served:
// 1 for the boot index, +1 per successful hot swap. A failed reload
// (rollback) does not bump it — the old generation is still answering.
func (s *Server) Generation() int64 { return s.generation.Load() }

// Reload loads a replacement index through the configured loader and
// swaps it in atomically. In-flight requests keep whichever snapshot
// they started with; no request observes a half-swapped index. If the
// load fails (missing file, bad checksum, unknown version, decode
// error), the current index stays in place and the error is returned —
// that is the rollback path. The superseded snapshot is retired after
// the swap: once its in-flight queries drain, its index is Closed and
// any mmap it held is released.
func (s *Server) Reload() error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.loadFn == nil {
		return errors.New("server: no reload loader configured")
	}
	next, err := s.loadFn()
	if err != nil {
		s.log.Printf("server: reload failed, keeping current index: %v", err)
		return fmt.Errorf("server: reload: %w", err)
	}
	if next == nil {
		s.log.Printf("server: reload loader returned nil index, keeping current")
		return errors.New("server: reload: loader returned nil index")
	}
	if s.cache != nil {
		// The replacement index gets a fresh cache generation; decodes
		// belonging to any other generation are dropped eagerly. In-flight
		// requests still holding the old snapshot just miss the cache —
		// they can never observe entries from the wrong index.
		next.AttachCache(s.cache)
		defer s.cache.DropOtherGenerations(next.Generation())
	}
	old := s.snap.Swap(index.NewSnapshot(next))
	s.reloads.Add(1)
	s.generation.Add(1)
	oldIdx := old.Index()
	s.log.Printf("server: hot-reloaded index: %d docs, %d terms, %d compressed bytes (was %d docs, %d terms)",
		next.Docs(), next.Terms(), next.SizeBytes(), oldIdx.Docs(), oldIdx.Terms())
	// Drop the server's reference last: the replacement is already
	// published, so any acquire that loses the race against this retire
	// will retry onto the new snapshot.
	old.Retire()
	return nil
}

// Run listens on addr and serves until ctx is cancelled, then drains
// gracefully. It is the one call cmd/bvserve needs.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen %s: %w", addr, err)
	}
	return s.Serve(ctx, ln)
}

// Serve serves on ln until ctx is cancelled, then stops accepting new
// connections, flips /readyz to not-ready, and drains in-flight
// requests for up to DrainDeadline before returning. A nil return
// means every in-flight request completed.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:      s.Handler(),
		ReadTimeout:  s.cfg.ReadTimeout,
		WriteTimeout: s.cfg.WriteTimeout,
		IdleTimeout:  s.cfg.IdleTimeout,
		ErrorLog:     s.log,
	}
	s.draining.Store(false)
	s.ready.Store(true)
	s.log.Printf("server: listening on %s (max in-flight %d, request timeout %s)",
		ln.Addr(), s.cfg.MaxInFlight, s.cfg.RequestTimeout)

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// The listener died underneath us; nothing to drain.
		s.ready.Store(false)
		return fmt.Errorf("server: serve: %w", err)
	case <-ctx.Done():
	}

	s.ready.Store(false)
	s.draining.Store(true)
	s.log.Printf("server: draining %d in-flight requests (deadline %s)",
		s.inFlight.Load(), s.cfg.DrainDeadline)
	sctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainDeadline)
	defer cancel()
	err := srv.Shutdown(sctx)
	<-errc // srv.Serve has returned http.ErrServerClosed
	if err != nil {
		return fmt.Errorf("server: drain deadline exceeded: %w", err)
	}
	s.log.Printf("server: shutdown complete")
	return nil
}
