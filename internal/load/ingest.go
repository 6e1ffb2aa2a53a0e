package load

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// Live-ingestion chaos: drive a real `bvserve -live` subprocess with a
// stream of ingests, deletes, and sentinel verification queries, then
// SIGKILL it mid-ingest — twice — and require that after each restart
// every acked write is still served and every acked delete stays dead.
// An ack here is the server's 200, which bvserve only sends after the
// WAL fsync, so "acked" and "must survive kill -9" are the same set.
//
// Requests that die in flight (the transport error when the process is
// killed under them) are recorded as limbo: the harness never saw an
// ack, so the op is legally allowed to have happened or not — the
// recovery invariant permits any prefix between acked and submitted.
// What is never legal: a lost acked write, a resurrected acked delete,
// or a sentinel query returning the wrong document set.

// LiveProc manages a bvserve -live subprocess for the ingest chaos
// harness: real SIGKILL, real restart, same data directory.
type LiveProc struct {
	Bin       string
	Dir       string   // live data directory, reused across restarts
	ExtraArgs []string // appended to the standard -live argument set
	LogTo     io.Writer

	addr string
	mu   sync.Mutex
	cmd  *exec.Cmd
	done chan error
}

// NewLiveProc prepares the controller; the live directory is created
// by the server on first boot.
func NewLiveProc(bin, dir string, extraArgs []string, logTo io.Writer) (*LiveProc, error) {
	if _, err := exec.LookPath(bin); err != nil {
		return nil, fmt.Errorf("load: bvserve binary: %w", err)
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	if logTo == nil {
		logTo = io.Discard
	}
	return &LiveProc{Bin: bin, Dir: dir, ExtraArgs: extraArgs, LogTo: logTo, addr: addr}, nil
}

// BaseURL is stable across Kill/Restart.
func (p *LiveProc) BaseURL() string { return "http://" + p.addr }

// Start execs bvserve -live and waits for /readyz.
func (p *LiveProc) Start(ctx context.Context) error {
	p.mu.Lock()
	if p.cmd != nil {
		p.mu.Unlock()
		return fmt.Errorf("load: live server already running")
	}
	args := append([]string{
		"-live", p.Dir,
		"-addr", p.addr,
		"-drain", "2s",
	}, p.ExtraArgs...)
	cmd := exec.Command(p.Bin, args...)
	cmd.Stdout = p.LogTo
	cmd.Stderr = p.LogTo
	if err := cmd.Start(); err != nil {
		p.mu.Unlock()
		return fmt.Errorf("load: starting %s: %w", p.Bin, err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	p.cmd, p.done = cmd, done
	p.mu.Unlock()
	return pollReady(ctx, p.BaseURL(), 15*time.Second)
}

// Kill SIGKILLs the process — no drain, no WAL flush beyond what each
// ack already forced.
func (p *LiveProc) Kill() error {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.cmd, p.done = nil, nil
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return fmt.Errorf("load: live server not running")
	}
	if err := cmd.Process.Kill(); err != nil {
		return fmt.Errorf("load: kill: %w", err)
	}
	<-done
	return nil
}

// Restart boots again over the same directory; recovery replays the
// manifest and WAL before /readyz answers.
func (p *LiveProc) Restart(ctx context.Context) error { return p.Start(ctx) }

// Stop shuts down cleanly (SIGTERM + drain) at the end of the run.
func (p *LiveProc) Stop() error {
	p.mu.Lock()
	cmd, done := p.cmd, p.done
	p.cmd, p.done = nil, nil
	p.mu.Unlock()
	if cmd == nil || cmd.Process == nil {
		return nil
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		return err
	}
	select {
	case <-done:
		return nil
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		<-done
		return fmt.Errorf("load: live server ignored SIGTERM; killed")
	}
}

// IngestChaosConfig tunes the live ingest/delete storm.
type IngestChaosConfig struct {
	Bin      string        // bvserve binary
	Dir      string        // live data directory
	Duration time.Duration // total run length
	Rate     float64       // offered write+verify ops per second (default 100)
	Seed     int64
	// SealDocs/CompactSegments pass through to bvserve so seals and
	// compactions actually happen during the storm.
	SealDocs        int // default 150
	CompactSegments int // default 3
	LogTo           io.Writer
}

// IngestReport is the machine-readable outcome, written as
// results/LOAD_ingest.json.
type IngestReport struct {
	Target     string    `json:"target"`
	Seed       int64     `json:"seed"`
	RateOPS    float64   `json:"rateOPS"`
	DurationNs int64     `json:"durationNs"`
	Started    time.Time `json:"started"`
	Finished   time.Time `json:"finished"`

	Ops          int64 `json:"ops"`
	AckedAdds    int64 `json:"ackedAdds"`
	AckedDeletes int64 `json:"ackedDeletes"`
	Verifies     int64 `json:"verifies"`
	Sheds        int64 `json:"sheds"`
	LimboAdds    int64 `json:"limboAdds"`    // in-flight when killed; either outcome legal
	LimboDeletes int64 `json:"limboDeletes"` //
	Kills        int   `json:"kills"`

	FinalSweepDocs int `json:"finalSweepDocs"` // sentinels checked after the last restart

	// The three zero-tolerance gates.
	LostAcked   []uint32 `json:"lostAcked,omitempty"`
	Resurrected []uint32 `json:"resurrected,omitempty"`
	Incorrect   []string `json:"incorrect,omitempty"`

	FinalStats json.RawMessage `json:"finalStats,omitempty"` // /stats at the end

	Events     []Event  `json:"events,omitempty"`
	Violations []string `json:"violations,omitempty"`
	Pass       bool     `json:"pass"`
}

// WriteFile writes the report, creating parent directories.
func (r *IngestReport) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ingestState is the harness's mirror of what the server has acked.
type ingestState struct {
	acked     map[uint32]string // docid -> sentinel term, acked and not deleted
	deleted   map[uint32]string // docid -> sentinel, delete acked
	limbo     map[uint32]string // delete in flight when killed: either outcome legal
	limboAdds []string          // sentinels of adds whose ack was lost: no docid known
	seq       int
}

func sentinelTerm(seq int) string { return fmt.Sprintf("sentinel%06d", seq) }

// RunIngestChaos runs the storm and returns the report (never an error
// for gate failures — those set Violations; the error is for harness
// breakage).
func RunIngestChaos(ctx context.Context, cfg IngestChaosConfig) (*IngestReport, error) {
	if cfg.Rate <= 0 {
		cfg.Rate = 100
	}
	if cfg.SealDocs <= 0 {
		cfg.SealDocs = 150
	}
	if cfg.CompactSegments <= 0 {
		cfg.CompactSegments = 3
	}
	proc, err := NewLiveProc(cfg.Bin, cfg.Dir, []string{
		"-seal-docs", fmt.Sprint(cfg.SealDocs),
		"-compact-segments", fmt.Sprint(cfg.CompactSegments),
	}, cfg.LogTo)
	if err != nil {
		return nil, err
	}
	if err := proc.Start(ctx); err != nil {
		return nil, err
	}
	defer proc.Stop()

	rep := &IngestReport{
		Target: proc.BaseURL(), Seed: cfg.Seed, RateOPS: cfg.Rate,
		DurationNs: int64(cfg.Duration), Started: time.Now(), Pass: true,
	}
	record := func(name, detail string, err error) {
		e := Event{At: time.Now(), Name: name, Detail: detail}
		if err != nil {
			e.Err = err.Error()
		}
		rep.Events = append(rep.Events, e)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := &ingestState{acked: map[uint32]string{}, deleted: map[uint32]string{}, limbo: map[uint32]string{}}
	client := &http.Client{Timeout: 3 * time.Second}
	base := proc.BaseURL()
	vocab := []string{"alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "lambda"}

	start := time.Now()
	interval := time.Duration(float64(time.Second) / cfg.Rate)
	killAt := []float64{0.40, 0.75}
	killed := 0

	for time.Since(start) < cfg.Duration && ctx.Err() == nil {
		frac := float64(time.Since(start)) / float64(cfg.Duration)
		if killed < len(killAt) && frac >= killAt[killed] {
			// SIGKILL mid-ingest, restart over the same directory, and
			// immediately prove no acked write was lost.
			killed++
			rep.Kills++
			err := proc.Kill()
			if err == nil {
				time.Sleep(150 * time.Millisecond)
				err = proc.Restart(ctx)
			}
			record(fmt.Sprintf("kill-restart-%d", killed), fmt.Sprintf("%d acked docs at kill", len(st.acked)), err)
			if err != nil {
				return rep, fmt.Errorf("load: kill/restart %d: %w", killed, err)
			}
			sweepAcked(client, base, st, rep, 64, rng)
			continue
		}

		switch op := rng.Float64(); {
		case op < 0.60: // ingest
			st.seq++
			sent := sentinelTerm(st.seq)
			text := sent + " " + vocab[rng.Intn(len(vocab))] + " " + vocab[rng.Intn(len(vocab))]
			id, status, err := postIngest(client, base, text)
			rep.Ops++
			switch {
			case err != nil:
				rep.LimboAdds++ // no ack seen; recovery may keep or drop it
				st.limboAdds = append(st.limboAdds, sent)
			case status == http.StatusOK:
				rep.AckedAdds++
				st.acked[id] = sent
			case status == http.StatusTooManyRequests:
				rep.Sheds++
			default:
				rep.Incorrect = append(rep.Incorrect, fmt.Sprintf("ingest %s: status %d", sent, status))
			}
		case op < 0.75 && len(st.acked) > 0: // delete
			id, sent := randomAcked(rng, st.acked)
			status, err := postDelete(client, base, id)
			rep.Ops++
			switch {
			case err != nil:
				rep.LimboDeletes++
				delete(st.acked, id)
				st.limbo[id] = sent // deleted or not — both legal from here on
			case status == http.StatusOK:
				rep.AckedDeletes++
				delete(st.acked, id)
				st.deleted[id] = sent
			case status == http.StatusTooManyRequests:
				rep.Sheds++
			case status == http.StatusNotFound:
				// Only legal for a doc whose delete previously went limbo —
				// randomAcked never picks those, so 404 here is a bug.
				rep.Incorrect = append(rep.Incorrect, fmt.Sprintf("delete %d: 404 for an acked doc", id))
			default:
				rep.Incorrect = append(rep.Incorrect, fmt.Sprintf("delete %d: status %d", id, status))
			}
		default: // verify a random sentinel
			rep.Ops++
			verifyOne(client, base, st, rep, rng)
		}

		select {
		case <-ctx.Done():
		case <-time.After(interval):
		}
	}
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}

	// Final sweep: every sentinel with a determined outcome, exhaustively.
	n, err := finalSweep(client, base, st, rep)
	record("final-sweep", fmt.Sprintf("%d sentinels", n), err)
	rep.FinalSweepDocs = n

	var stats json.RawMessage
	if err := getJSON(ctx, base+"/stats", &stats); err == nil {
		rep.FinalStats = stats
	}
	rep.Finished = time.Now()

	if rep.AckedAdds < 20 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("vacuous run: only %d acked ingests", rep.AckedAdds))
	}
	if rep.Kills < 2 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("storm ran only %d kills, want 2", rep.Kills))
	}
	if len(rep.LostAcked) > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d acked writes lost: %v", len(rep.LostAcked), rep.LostAcked))
	}
	if len(rep.Resurrected) > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d acked deletes resurrected: %v", len(rep.Resurrected), rep.Resurrected))
	}
	if len(rep.Incorrect) > 0 {
		rep.Violations = append(rep.Violations, fmt.Sprintf("%d incorrect responses (first: %s)", len(rep.Incorrect), rep.Incorrect[0]))
	}
	rep.Pass = len(rep.Violations) == 0
	return rep, nil
}

func postIngest(client *http.Client, base, text string) (uint32, int, error) {
	body, _ := json.Marshal(map[string]string{"text": text})
	resp, err := client.Post(base+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, resp.StatusCode, nil
	}
	var out struct {
		Doc uint32 `json:"doc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return 0, 0, err
	}
	return out.Doc, resp.StatusCode, nil
}

func postDelete(client *http.Client, base string, id uint32) (int, error) {
	body, _ := json.Marshal(map[string]uint32{"doc": id})
	resp, err := client.Post(base+"/delete", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil
}

// searchSentinel returns the doc list the server serves for one
// sentinel term.
func searchSentinel(client *http.Client, base, sent string) ([]uint32, error) {
	resp, err := client.Get(base + "/search?mode=and&q=" + sent)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("search %s: status %d", sent, resp.StatusCode)
	}
	var out struct {
		Docs []uint32 `json:"docs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Docs, nil
}

func randomAcked(rng *rand.Rand, acked map[uint32]string) (uint32, string) {
	i := rng.Intn(len(acked))
	for id, sent := range acked {
		if i == 0 {
			return id, sent
		}
		i--
	}
	panic("unreachable")
}

// verifyOne spot-checks one sentinel mid-run: an acked doc must be
// served as exactly its docid; an acked delete must be absent.
func verifyOne(client *http.Client, base string, st *ingestState, rep *IngestReport, rng *rand.Rand) {
	rep.Verifies++
	if len(st.acked) > 0 && (len(st.deleted) == 0 || rng.Intn(2) == 0) {
		id, sent := randomAcked(rng, st.acked)
		docs, err := searchSentinel(client, base, sent)
		if err != nil {
			return // transport noise around a kill; the final sweep is authoritative
		}
		if len(docs) != 1 || docs[0] != id {
			rep.Incorrect = append(rep.Incorrect, fmt.Sprintf("sentinel %s: got %v, want [%d]", sent, docs, id))
		}
		return
	}
	if len(st.deleted) == 0 {
		return
	}
	for id, sent := range st.deleted {
		docs, err := searchSentinel(client, base, sent)
		if err == nil && len(docs) != 0 {
			rep.Incorrect = append(rep.Incorrect, fmt.Sprintf("deleted sentinel %s: still served as %v (deleted doc %d)", sent, docs, id))
		}
		return
	}
}

// sweepAcked samples up to n acked sentinels right after a restart —
// the fast "did recovery lose anything" probe; the exhaustive check is
// finalSweep.
func sweepAcked(client *http.Client, base string, st *ingestState, rep *IngestReport, n int, rng *rand.Rand) {
	checked := 0
	for id, sent := range st.acked {
		if checked >= n {
			break
		}
		checked++
		docs, err := searchSentinel(client, base, sent)
		if err != nil {
			continue
		}
		if len(docs) != 1 || docs[0] != id {
			rep.LostAcked = append(rep.LostAcked, id)
		}
	}
}

// finalSweep exhaustively checks every determined sentinel after the
// storm: acked docs must be served exactly, acked deletes must stay
// dead, limbo ops may have gone either way but must be internally
// consistent (the sentinel is either absent or exactly its docid).
func finalSweep(client *http.Client, base string, st *ingestState, rep *IngestReport) (int, error) {
	n := 0
	for id, sent := range st.acked {
		n++
		docs, err := searchSentinel(client, base, sent)
		if err != nil {
			return n, err
		}
		if len(docs) != 1 || docs[0] != id {
			rep.LostAcked = append(rep.LostAcked, id)
		}
	}
	for id, sent := range st.deleted {
		n++
		docs, err := searchSentinel(client, base, sent)
		if err != nil {
			return n, err
		}
		if len(docs) != 0 {
			rep.Resurrected = append(rep.Resurrected, id)
		}
	}
	for id, sent := range st.limbo {
		n++
		docs, err := searchSentinel(client, base, sent)
		if err != nil {
			return n, err
		}
		if len(docs) != 0 && (len(docs) != 1 || docs[0] != id) {
			rep.Incorrect = append(rep.Incorrect, fmt.Sprintf("limbo sentinel %s: got %v, want [] or [%d]", sent, docs, id))
		}
	}
	for _, sent := range st.limboAdds {
		// The ack was lost so no docid is known; the add may have landed
		// or not, but the sentinel is unique to one submitted document —
		// more than one match is corruption.
		n++
		docs, err := searchSentinel(client, base, sent)
		if err != nil {
			return n, err
		}
		if len(docs) > 1 {
			rep.Incorrect = append(rep.Incorrect, fmt.Sprintf("limbo-add sentinel %s: %d matches, want at most 1", sent, len(docs)))
		}
	}
	return n, nil
}
