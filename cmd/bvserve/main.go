// Command bvserve exposes a compressed inverted index over HTTP — the
// smallest realistic deployment of the §A.1 search stack: build or load
// an index, then answer conjunctive/disjunctive/top-k queries as JSON
// from behind a hardened serving layer (timeouts, load shedding, panic
// recovery, graceful shutdown, hot index reload).
//
// Usage:
//
//	bvserve -in docs.txt -addr :8080 -codec Roaring
//	bvserve -index docs.idx -addr :8080
//	bvserve -live data/live -addr :8080
//
//	GET  /search?q=compressed+lists&mode=and
//	GET  /search?q=bitmap&mode=topk&k=3
//	GET  /stats
//	GET  /healthz        liveness probe
//	GET  /readyz         readiness probe (503 while starting or draining)
//	POST /reload         hot-swap the index from the original source
//
// With -live DIR the server fronts the WAL-backed mutable index in DIR
// instead of a static file: POST /ingest {"text": ...} and POST
// /delete {"doc": N} become available (acked only after the WAL
// fsync, so acked writes survive kill -9), /reload force-seals the
// mutable segment, and /stats reports per-segment depth and WAL
// gauges. The WAL group-commits with no window to tune: a lone write
// is synced at once, and writes that arrive during an fsync share the
// next one. -seal-docs, -compact-segments, and -ingest-queue tune the
// live mode; -fsync-window is still accepted but ignored.
//
// SIGHUP also triggers a hot reload (a seal in live mode);
// SIGINT/SIGTERM drain gracefully.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/codecs"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], log.Default()); err != nil {
		log.Fatalf("bvserve: %v", err)
	}
}

// run is the whole program behind flag parsing and signal wiring,
// returning errors (instead of log.Fatal-ing mid-stack) so shutdown is
// testable and deferred cleanup actually runs.
func run(ctx context.Context, args []string, logger *log.Logger) error {
	fs := flag.NewFlagSet("bvserve", flag.ContinueOnError)
	var (
		inFile    = fs.String("in", "", "documents to index, one per line")
		indexFile = fs.String("index", "", "pre-built index file (bvindex -build)")
		codecName = fs.String("codec", "Roaring", "codec for posting lists (with -in)")
		shards    = fs.Int("shards", 0, "tokenizer shards for parallel builds with -in (0 = GOMAXPROCS)")
		addr      = fs.String("addr", ":8080", "listen address")

		liveDir     = fs.String("live", "", "live-ingestion mode: WAL-backed mutable index directory (POST /ingest, /delete)")
		sealDocs    = fs.Int("seal-docs", 50000, "live mode: auto-seal the mutable segment at this many documents (0 disables)")
		fsyncWindow = fs.Duration("fsync-window", 0, "Deprecated: ignored; every log group-commits")
		compactSegs = fs.Int("compact-segments", 4, "live mode: compact when this many sealed segments accumulate (0 disables)")
		ingestQueue = fs.Int("ingest-queue", 128, "live mode: admitted write requests before shedding with 429")

		readTimeout  = fs.Duration("read-timeout", 5*time.Second, "max time to read a request")
		writeTimeout = fs.Duration("write-timeout", 10*time.Second, "max time to write a response")
		idleTimeout  = fs.Duration("idle-timeout", 2*time.Minute, "keep-alive idle connection timeout")
		reqTimeout   = fs.Duration("request-timeout", 5*time.Second, "per-request handler budget")
		drain        = fs.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")

		maxInFlight = fs.Int("max-inflight", 64, "concurrent requests before shedding with 429")
		cacheMB     = fs.Int("cache-mb", 32, "decoded-posting cache budget in MiB (0 disables)")
		maxTerms    = fs.Int("max-terms", 16, "max query terms before 400")
		maxK        = fs.Int("max-k", 1000, "max top-k before 400")
		maxURL      = fs.Int("max-url", 8192, "max request-URI bytes before 414")

		maxDocs = fs.Int("max-docs", 1<<22, "max documents to ingest from -in")
		maxLine = fs.Int("max-line", 1<<20, "max bytes per -in document line")

		loadRetries   = fs.Int("load-retries", 5, "attempts for the initial index load when failures are transient")
		allowDegraded = fs.Bool("allow-degraded", true, "serve a checksum-failed index in degraded mode (quarantined terms withheld) instead of exiting")
	)
	fs.SetOutput(logger.Writer())
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(fs); err != nil {
		return err
	}

	if *fsyncWindow != 0 {
		logger.Printf("bvserve: -fsync-window=%s is deprecated and ignored: every WAL append group-commits with whatever is queued behind the fsync in flight", *fsyncWindow)
	}
	if *liveDir != "" {
		return runLive(ctx, logger, *liveDir, *addr, server.Config{
			ReadTimeout:    *readTimeout,
			WriteTimeout:   *writeTimeout,
			IdleTimeout:    *idleTimeout,
			RequestTimeout: *reqTimeout,
			DrainDeadline:  *drain,
			MaxInFlight:    *maxInFlight,
			MaxQueryTerms:  *maxTerms,
			MaxK:           *maxK,
			MaxURLBytes:    *maxURL,
			IngestQueue:    *ingestQueue,
			CacheBytes:     -1, // live postings are re-cut by seals; no decoded cache
			Logger:         logger,
		}, index.LiveOptions{
			SealDocs:        *sealDocs,
			CompactSegments: *compactSegs,
		})
	}

	load := func() (*index.Index, error) {
		idx, err := loadIndex(*inFile, *indexFile, *codecName, *shards, *maxDocs, *maxLine, *allowDegraded)
		if err != nil {
			return nil, err
		}
		if h := idx.Health(); h.Degraded {
			logger.Printf("bvserve: WARNING: serving DEGRADED index: sections %v failed checksums, %d terms quarantined; rebuild the index (see the corruption-recovery runbook)",
				h.QuarantinedSections, h.QuarantinedTerms)
		}
		return idx, nil
	}
	idx, err := loadWithRetry(ctx, logger, *loadRetries, load)
	if err != nil {
		return err
	}
	logger.Printf("serving %d documents, %d terms, %d compressed bytes on %s",
		idx.Docs(), idx.Terms(), idx.SizeBytes(), *addr)

	srv := server.New(idx, server.Config{
		ReadTimeout:    *readTimeout,
		WriteTimeout:   *writeTimeout,
		IdleTimeout:    *idleTimeout,
		RequestTimeout: *reqTimeout,
		DrainDeadline:  *drain,
		MaxInFlight:    *maxInFlight,
		MaxQueryTerms:  *maxTerms,
		MaxK:           *maxK,
		MaxURLBytes:    *maxURL,
		CacheBytes:     cacheBytes(*cacheMB),
		Logger:         logger,
	})
	srv.SetLoader(load)

	// SIGHUP hot-reloads the index from its original source (-in or
	// -index) without dropping in-flight requests; POST /reload is the
	// same path for environments where signals are awkward.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				if err := srv.Reload(); err != nil {
					logger.Printf("bvserve: SIGHUP reload: %v", err)
				}
			}
		}
	}()

	return srv.Run(ctx, *addr)
}

// runLive opens (or creates) the WAL-backed live index directory,
// replays whatever a previous process left behind — acked writes
// survive kill -9 — and serves it with ingestion enabled. SIGHUP
// force-seals the mutable segment, mirroring static mode's hot reload.
func runLive(ctx context.Context, logger *log.Logger, dir, addr string, cfg server.Config, opts index.LiveOptions) error {
	l, err := index.OpenLive(dir, opts)
	if err != nil {
		return fmt.Errorf("opening live index %s: %w", dir, err)
	}
	defer l.Close()
	st := l.Stats()
	logger.Printf("live index %s: %d documents across %d sealed segments (+%d mutable), %d tombstones, WAL seq %d",
		dir, st.VisibleDocs, st.Segments, st.MemDocs, st.Tombstones, st.WALSeq)
	if h := l.Health(); h.Degraded {
		logger.Printf("bvserve: WARNING: serving DEGRADED live index: sealed segments %v quarantined, mutable segment live; see the live-ingestion runbook",
			h.QuarantinedSegments)
	}

	srv := server.NewLive(l, cfg)
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case <-hup:
				if err := l.Seal(); err != nil {
					logger.Printf("bvserve: SIGHUP seal: %v", err)
				}
			}
		}
	}()
	return srv.Run(ctx, addr)
}

// validateFlags rejects nonsensical configurations right after parse,
// before any index is loaded or socket bound, with a one-line cause.
// (-cache-mb is exempt: zero and negative mean "cache disabled".)
func validateFlags(fs *flag.FlagSet) error {
	get := func(name string) any { return fs.Lookup(name).Value.(flag.Getter).Get() }
	for _, name := range []string{"read-timeout", "write-timeout", "idle-timeout", "request-timeout", "drain"} {
		if d := get(name).(time.Duration); d <= 0 {
			return fmt.Errorf("-%s=%s: timeout must be positive", name, d)
		}
	}
	for _, name := range []string{"max-inflight", "max-terms", "max-k", "max-url", "max-docs", "max-line"} {
		if v := get(name).(int); v <= 0 {
			return fmt.Errorf("-%s=%d: limit must be positive", name, v)
		}
	}
	if v := get("load-retries").(int); v < 1 {
		return fmt.Errorf("-load-retries=%d: need at least one load attempt", v)
	}
	if v := get("shards").(int); v < 0 || v > 4096 {
		return fmt.Errorf("-shards=%d: want 0 (one per CPU) through 4096", v)
	}
	if get("addr").(string) == "" {
		return fmt.Errorf("-addr: listen address must not be empty")
	}
	if get("live").(string) != "" {
		if get("in").(string) != "" || get("index").(string) != "" {
			return fmt.Errorf("-live: mutually exclusive with -in and -index")
		}
		if v := get("seal-docs").(int); v < 0 {
			return fmt.Errorf("-seal-docs=%d: want 0 (disabled) or a positive document count", v)
		}
		if v := get("compact-segments").(int); v < 0 {
			return fmt.Errorf("-compact-segments=%d: want 0 (disabled) or a positive segment count", v)
		}
		if v := get("ingest-queue").(int); v <= 0 {
			return fmt.Errorf("-ingest-queue=%d: admission depth must be positive", v)
		}
	}
	return nil
}

// cacheBytes maps the -cache-mb flag onto Config.CacheBytes, where 0
// means "default" and negative means "disabled".
func cacheBytes(mb int) int {
	if mb <= 0 {
		return -1
	}
	return mb << 20
}

// loadWithRetry runs load, retrying transient failures (as classified
// by core.IsTransient: resource exhaustion, timeouts) with capped
// exponential backoff. Permanent failures — corrupt files, unknown
// versions, missing paths — fail immediately; retrying cannot fix
// them. Respects ctx so shutdown interrupts a backoff sleep.
func loadWithRetry(ctx context.Context, logger *log.Logger, attempts int, load func() (*index.Index, error)) (*index.Index, error) {
	const maxDelay = 5 * time.Second
	delay := 100 * time.Millisecond
	for attempt := 1; ; attempt++ {
		idx, err := load()
		if err == nil {
			return idx, nil
		}
		if attempt >= attempts || !core.IsTransient(err) {
			return nil, err
		}
		logger.Printf("bvserve: load attempt %d/%d failed (transient): %v; retrying in %s",
			attempt, attempts, err, delay)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(delay):
		}
		if delay *= 2; delay > maxDelay {
			delay = maxDelay
		}
	}
}

// loadIndex builds from raw documents or loads a serialized index. The
// ingest path is bounded: more than maxDocs lines or a line longer than
// maxLineBytes is a clear error naming the offending line, not a silent
// truncation or an unbounded build.
//
// The -index path goes through index.OpenFile, which maps BVIX3 files
// zero-copy and materializes postings lazily. Superseded snapshots from
// hot reloads are retired by the serving layer and Closed once their
// in-flight queries drain. When the file fails its checksums and
// allowDegraded is set, the open falls back to degraded mode: verified
// content serves, the rest is quarantined, and /healthz reports the
// damage.
func loadIndex(inFile, indexFile, codecName string, shards, maxDocs, maxLineBytes int, allowDegraded bool) (*index.Index, error) {
	switch {
	case indexFile != "":
		idx, err := index.OpenFile(indexFile)
		if err != nil && allowDegraded && errors.Is(err, core.ErrChecksum) {
			deg, derr := index.OpenFileDegraded(indexFile)
			if derr != nil {
				return nil, err // salvage failed too; the strict error names the damage
			}
			return deg, nil
		}
		return idx, err
	case inFile != "":
		codec, err := codecs.ByName(codecName)
		if err != nil {
			return nil, err
		}
		f, err := os.Open(inFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		b := index.NewBuilder(codec)
		b.SetShards(shards)
		sc := bufio.NewScanner(f)
		// The scanner's cap is max(bufCap, maxLineBytes), so the initial
		// buffer must not exceed the configured line limit.
		sc.Buffer(make([]byte, min(64*1024, maxLineBytes)), maxLineBytes)
		line, added := 0, 0
		for sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			if added >= maxDocs {
				return nil, fmt.Errorf("%s: more than %d documents (at line %d); raise -max-docs", inFile, maxDocs, line)
			}
			b.AddDocument(text)
			added++
		}
		if err := sc.Err(); err != nil {
			if errors.Is(err, bufio.ErrTooLong) {
				return nil, fmt.Errorf("%s: line %d exceeds -max-line=%d bytes: %w", inFile, line+1, maxLineBytes, err)
			}
			return nil, fmt.Errorf("%s: %w", inFile, err)
		}
		return b.Build()
	default:
		return nil, fmt.Errorf("pass -in (documents) or -index (prebuilt index)")
	}
}
