// Command bvrouter is the scatter-gather front of a doc-partitioned
// deployment: it fans point/AND/OR/top-k queries out to every shard in
// parallel, merges the per-shard answers exactly (sorted union for
// postings, strict-beat best-k for rankings), and degrades
// gracefully when a shard is down — a partial answer with the dead
// shards named, never a failed query. Tail latency is cut with
// load-based pick-of-two replica routing and hedged requests: a backup
// attempt fires on another replica after an adaptive p99-based delay
// and the first success cancels the loser.
//
// Usage:
//
//	bvrouter -map shards/shards.json -addr :8090            # in-process shards
//	bvrouter -shards "http://a:8080,http://b:8080;http://c:8080,http://d:8080"
//	                                                        # 2 shards x 2 bvserve replicas
//
//	GET /search?q=compressed+lists&mode=and                 # same API as bvserve,
//	GET /search?q=bitmap&mode=topk&k=3                      # plus partial/degradedShards
//	GET /stats                                              # per-shard latency/hedge/degraded
//	GET /healthz                                            # ok | partial | down
//	GET /readyz
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], log.Default()); err != nil {
		log.Fatalf("bvrouter: %v", err)
	}
}

// run is the whole program behind flag parsing and signal wiring,
// returning errors so shutdown is testable and deferred cleanup runs.
func run(ctx context.Context, args []string, logger *log.Logger) error {
	fs := flag.NewFlagSet("bvrouter", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8090", "listen address")
		mapFile  = fs.String("map", "", "shard-map manifest (bvindex -partition); shards open in-process")
		topology = fs.String("shards", "", "remote topology: replicas comma-separated, shards semicolon-separated, e.g. \"http://a:8080,http://b:8080;http://c:8080\"")
		noVerify = fs.Bool("no-verify", false, "skip shard-file checksum verification against the manifest (with -map)")

		hedge    = fs.Bool("hedge", true, "hedge slow shard attempts onto another replica")
		hedgeMin = fs.Duration("hedge-min", time.Millisecond, "lower clamp on the adaptive hedge delay")
		hedgeMax = fs.Duration("hedge-max", 50*time.Millisecond, "upper clamp on the adaptive hedge delay (also the cold-start delay)")
		shardTO  = fs.Duration("shard-timeout", 2*time.Second, "per-shard budget for one query, all attempts included")

		maxTerms = fs.Int("max-terms", 16, "max query terms before 400")
		maxK     = fs.Int("max-k", 100000, "max top-k before 400")
		drain    = fs.Duration("drain", 10*time.Second, "graceful shutdown deadline for in-flight requests")
	)
	fs.SetOutput(logger.Writer())
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateFlags(fs); err != nil {
		return err
	}

	backends, cleanup, err := buildBackends(*mapFile, *topology, !*noVerify, logger)
	if err != nil {
		return err
	}
	defer cleanup()

	router, err := shard.NewRouter(shard.RouterConfig{
		Hedge:        *hedge,
		HedgeMin:     *hedgeMin,
		HedgeMax:     *hedgeMax,
		ShardTimeout: *shardTO,
	}, backends)
	if err != nil {
		return err
	}
	replicas := 0
	for _, b := range backends {
		replicas += len(b)
	}
	logger.Printf("bvrouter: %d shards, %d replicas, hedge=%v [%s..%s], shard timeout %s",
		len(backends), replicas, *hedge, *hedgeMin, *hedgeMax, *shardTO)
	// The same front bvserve runs: one /search handler, limits, load
	// shedding, panic recovery and drain, over the router as Searcher.
	srv := server.NewFront(router, server.Config{
		MaxQueryTerms: *maxTerms,
		MaxK:          *maxK,
		DrainDeadline: *drain,
		Logger:        logger,
	})
	return srv.Run(ctx, *addr)
}

// validateFlags rejects nonsensical configurations right after parse,
// before any shard is opened or socket bound, with a one-line cause.
func validateFlags(fs *flag.FlagSet) error {
	get := func(name string) any { return fs.Lookup(name).Value.(flag.Getter).Get() }
	mapFile := get("map").(string)
	topology := get("shards").(string)
	switch {
	case mapFile == "" && topology == "":
		return fmt.Errorf("pass -map (in-process shards) or -shards (remote replicas)")
	case mapFile != "" && topology != "":
		return fmt.Errorf("-map and -shards are mutually exclusive")
	}
	if topology != "" {
		if _, err := parseTopology(topology); err != nil {
			return err
		}
	}
	for _, name := range []string{"hedge-min", "hedge-max", "shard-timeout", "drain"} {
		if d := get(name).(time.Duration); d <= 0 {
			return fmt.Errorf("-%s=%s: duration must be positive", name, d)
		}
	}
	if get("hedge-min").(time.Duration) > get("hedge-max").(time.Duration) {
		return fmt.Errorf("-hedge-min=%s exceeds -hedge-max=%s", get("hedge-min"), get("hedge-max"))
	}
	for _, name := range []string{"max-terms", "max-k"} {
		if v := get(name).(int); v <= 0 {
			return fmt.Errorf("-%s=%d: limit must be positive", name, v)
		}
	}
	if get("addr").(string) == "" {
		return fmt.Errorf("-addr: listen address must not be empty")
	}
	return nil
}

// parseTopology parses the -shards grammar: shards separated by ';',
// each shard's replica URLs separated by ','.
func parseTopology(s string) ([][]string, error) {
	var out [][]string
	for i, shardSpec := range strings.Split(s, ";") {
		shardSpec = strings.TrimSpace(shardSpec)
		if shardSpec == "" {
			return nil, fmt.Errorf("-shards: shard %d is empty", i)
		}
		var reps []string
		for j, u := range strings.Split(shardSpec, ",") {
			u = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(u), "/"))
			if u == "" {
				return nil, fmt.Errorf("-shards: shard %d replica %d is empty", i, j)
			}
			if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
				return nil, fmt.Errorf("-shards: shard %d replica %q: want an http(s):// URL", i, u)
			}
			reps = append(reps, u)
		}
		out = append(out, reps)
	}
	return out, nil
}

// buildBackends assembles the replica matrix from either a local shard
// map (every shard file opened in-process, verified against the
// manifest's checksums first) or a remote topology of bvserve URLs.
func buildBackends(mapFile, topology string, verify bool, logger *log.Logger) ([][]shard.Backend, func(), error) {
	if mapFile != "" {
		return loadLocalShards(mapFile, verify, logger)
	}
	urls, err := parseTopology(topology)
	if err != nil {
		return nil, nil, err
	}
	// One shared transport sized so hedged attempts to the same host
	// never queue behind each other's idle-connection limit.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	backends := make([][]shard.Backend, len(urls))
	for s, reps := range urls {
		for _, u := range reps {
			backends[s] = append(backends[s], &shard.HTTPBackend{Base: u, Client: client})
		}
	}
	return backends, func() {}, nil
}

// loadLocalShards opens every shard file named by the manifest as an
// in-process backend (one replica per shard — hedging needs remote
// replicas to have anywhere to go).
func loadLocalShards(mapFile string, verify bool, logger *log.Logger) ([][]shard.Backend, func(), error) {
	m, err := shard.LoadMap(mapFile)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Dir(mapFile)
	if verify {
		if err := m.VerifyFiles(dir); err != nil {
			return nil, nil, err
		}
	}
	var opened []*index.Index
	closeAll := func() {
		for _, idx := range opened {
			idx.Close()
		}
	}
	backends := make([][]shard.Backend, m.Shards)
	for s, e := range m.Entries {
		idx, err := index.OpenFile(filepath.Join(dir, e.File))
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		opened = append(opened, idx)
		backends[s] = []shard.Backend{&shard.IndexBackend{Idx: idx, Label: e.File}}
		logger.Printf("bvrouter: shard %d: %s (%d docs, %d terms)", s, e.File, idx.Docs(), idx.Terms())
	}
	return backends, closeAll, nil
}
