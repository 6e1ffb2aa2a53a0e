package load

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/codecs"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/shard"
)

// RouterRig stands up the full scale-out serving topology for a load
// run: the corpus doc-partitioned across n shard servers — real
// bvserve subprocesses when a binary is provided (real SIGKILL), else
// in-process servers — fronted by an in-process bvrouter equivalent
// (server.NewFront over a shard.Router). The load generator points at
// the router's BaseURL and needs no changes: the router's /search
// response is a superset of bvserve's, so the same ground-truth
// checker applies, and a killed shard surfaces as a documented
// degraded partial, never a blast.
type RouterRig struct {
	Shards int

	ctrls []Controller
	log   *log.Logger

	mu     sync.Mutex
	srv    *server.Server
	addr   string
	cancel context.CancelFunc
	done   chan error
}

// NewRouterRig partitions docs round-robin across n shards, writes
// each shard's BVIX3 index under dir, and prepares one Controller per
// shard: a ProcServer driving serveBin when it is non-empty, a
// LocalServer otherwise. Call Start to boot the fleet and the router.
func NewRouterRig(dir string, docs []string, codecName string, n int, serveBin string, logger *log.Logger) (*RouterRig, error) {
	parts, err := shard.Partition(docs, n)
	if err != nil {
		return nil, err
	}
	codec, err := codecs.ByName(codecName)
	if err != nil {
		return nil, err
	}
	if logger == nil {
		logger = log.New(logDiscard{}, "", 0)
	}
	rig := &RouterRig{Shards: n, log: logger}
	for s, part := range parts {
		b := index.NewBuilder(codec)
		for _, d := range part {
			b.AddDocument(d)
		}
		idx, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("load: building shard %d: %w", s, err)
		}
		path := filepath.Join(dir, shard.FileName(s))
		if err := idx.WriteFile(path, index.FormatBVIX3Impacts); err != nil {
			return nil, fmt.Errorf("load: writing shard %d: %w", s, err)
		}
		var ctrl Controller
		if serveBin != "" {
			ctrl, err = NewProcServer(serveBin, path, logger.Writer())
		} else {
			ctrl, err = NewLocalServer(path, logger)
		}
		if err != nil {
			return nil, fmt.Errorf("load: shard %d controller: %w", s, err)
		}
		rig.ctrls = append(rig.ctrls, ctrl)
	}
	return rig, nil
}

// Start boots every shard server, then the router fronting them, and
// blocks until the router answers /readyz.
func (r *RouterRig) Start(ctx context.Context) error {
	for s, ctrl := range r.ctrls {
		if err := ctrl.Start(ctx); err != nil {
			r.stopShards()
			return fmt.Errorf("load: starting shard %d: %w", s, err)
		}
	}
	// One replica per shard: hedging has nowhere else to send the
	// backup, so it stays off — a dead shard is a degraded partial, not
	// a retry.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	replicas := make([][]shard.Backend, len(r.ctrls))
	for s, ctrl := range r.ctrls {
		replicas[s] = []shard.Backend{&shard.HTTPBackend{Base: ctrl.BaseURL(), Client: client}}
	}
	router, err := shard.NewRouter(shard.RouterConfig{Hedge: false}, replicas)
	if err != nil {
		r.stopShards()
		return err
	}
	srv := server.NewFront(router, server.Config{Logger: r.log, DrainDeadline: 200 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.stopShards()
		return fmt.Errorf("load: router listen: %w", err)
	}
	sctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(sctx, ln) }()
	r.mu.Lock()
	r.srv, r.addr, r.cancel, r.done = srv, ln.Addr().String(), cancel, done
	r.mu.Unlock()
	if err := pollReady(ctx, r.BaseURL(), 10*time.Second); err != nil {
		r.Stop()
		return err
	}
	return nil
}

// BaseURL is the router's root URL — the address the load generator
// targets.
func (r *RouterRig) BaseURL() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return "http://" + r.addr
}

// ShardBaseURL is shard s's own server URL (control-plane probes).
func (r *RouterRig) ShardBaseURL(s int) string { return r.ctrls[s].BaseURL() }

// KillShard terminates shard s abruptly — SIGKILL for a ProcServer.
// The router keeps serving: answers missing that shard's documents are
// marked partial.
func (r *RouterRig) KillShard(s int) error {
	if s < 0 || s >= len(r.ctrls) {
		return fmt.Errorf("load: no shard %d in a %d-shard rig", s, len(r.ctrls))
	}
	return r.ctrls[s].Kill()
}

// RestartShard boots shard s again on its original address and blocks
// until it answers /readyz.
func (r *RouterRig) RestartShard(ctx context.Context, s int) error {
	if s < 0 || s >= len(r.ctrls) {
		return fmt.Errorf("load: no shard %d in a %d-shard rig", s, len(r.ctrls))
	}
	return r.ctrls[s].Restart(ctx)
}

// Stop shuts down the router first (so no query sees shards vanish
// beneath it), then every shard server.
func (r *RouterRig) Stop() error {
	r.mu.Lock()
	cancel, done := r.cancel, r.done
	r.srv, r.cancel, r.done = nil, nil, nil
	r.mu.Unlock()
	if cancel != nil {
		cancel()
		<-done // drain errors are expected on teardown
	}
	r.stopShards()
	return nil
}

func (r *RouterRig) stopShards() {
	for _, ctrl := range r.ctrls {
		ctrl.Stop() // idempotent; a killed shard just reports not-running
	}
}

// RouterChaosConfig tunes the storm RunRouterChaos fires at a
// RouterRig while load runs against the router.
type RouterChaosConfig struct {
	// Duration is the load run length the schedule is planned within.
	Duration time.Duration
	// Victim is the shard to SIGKILL; defaults to the last shard.
	Victim int
	// ReadyTimeout bounds each post-step verification poll (default
	// 5s).
	ReadyTimeout time.Duration
}

// RunRouterChaos executes the scale-out failure drill against rig
// while a load run is in flight:
//
//	~30% — SIGKILL one shard   (degraded window opens; router /healthz must report partial)
//	~70% — restart the shard   (degraded window closes; /healthz must recover to ok)
//
// Unlike the single-server storm, no blast window ever opens: the
// router must absorb the dead shard and keep answering 200 with
// partial:true, so every response during the outage must classify as
// correct or degraded-partial (a subset of the healthy answer) — any
// transport error or 5xx is a gate violation.
func RunRouterChaos(ctx context.Context, cfg RouterChaosConfig, rig *RouterRig, win *Windows) ([]Event, error) {
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 5 * time.Second
	}
	victim := cfg.Victim
	if victim <= 0 || victim >= rig.Shards {
		victim = rig.Shards - 1
	}
	start := time.Now()
	var events []Event
	record := func(name, detail string, err error) {
		e := Event{At: time.Now(), Name: name, Detail: detail}
		if err != nil {
			e.Err = err.Error()
		}
		events = append(events, e)
	}
	at := func(frac float64) bool {
		d := time.Until(start.Add(time.Duration(frac * float64(cfg.Duration))))
		if d <= 0 {
			return ctx.Err() == nil
		}
		select {
		case <-ctx.Done():
			return false
		case <-time.After(d):
			return true
		}
	}
	base := rig.BaseURL()
	detail := fmt.Sprintf("shard %d of %d", victim, rig.Shards)

	if !at(0.30) {
		return events, ctx.Err()
	}
	closeDegraded := win.OpenDegraded("shard-kill")
	err := rig.KillShard(victim)
	if err == nil {
		err = pollHealth(ctx, base, cfg.ReadyTimeout, "partial")
	}
	record("shard-kill", detail, err)

	if !at(0.70) {
		closeDegraded()
		return events, ctx.Err()
	}
	err = rig.RestartShard(ctx, victim)
	if err == nil {
		err = pollHealth(ctx, base, cfg.ReadyTimeout, "ok")
	}
	closeDegraded()
	record("shard-restart", detail, err)

	return events, nil
}
