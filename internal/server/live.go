package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/index"
)

// Live-ingestion serving mode: instead of a static, hot-reloadable
// index snapshot, the server fronts an index.Live — the WAL-backed
// multi-segment mutable index — and additionally accepts writes:
//
//	POST /ingest  {"text": "..."}   -> {"doc": N}   (acked after fsync)
//	POST /delete  {"doc": N}        -> {"deleted": N}
//
// Reads go through the same /search handler as every mode: index.Live
// scatters across the mutable segment and every sealed segment with
// deletions masked. An ack from /ingest means the
// document is durable — it survives kill -9 — and immediately visible.
// Writes pass through a bounded admission gate sized by
// Config.IngestQueue: when the gate is full the request is shed with
// 429 + Retry-After instead of queueing into a commit-latency
// collapse. POST /reload maps to a manual seal (flush the mutable
// segment to an immutable BVIX3 segment) so operators can force a
// flush without bouncing the process.

// NewLive returns a server in live-ingestion mode, serving and
// mutating l. The hot-reload loader machinery is disabled; /ingest,
// /delete, and the live /stats and /healthz shapes are enabled.
func NewLive(l *index.Live, cfg Config) *Server {
	s := newServer(cfg)
	s.live = l
	s.ingestSem = make(chan struct{}, s.cfg.ingestQueue())
	s.mode = mode{
		pin:     func() (index.Searcher, func()) { return l, func() {} },
		stats:   s.liveStats,
		healthz: s.liveHealthz,
		routes: func(app *http.ServeMux) {
			app.HandleFunc("/reload", s.handleLiveSeal)
			app.HandleFunc("/ingest", s.handleIngest)
			app.HandleFunc("/delete", s.handleDelete)
		},
	}
	return s
}

// Live returns the live index being served, or nil in static mode.
func (s *Server) Live() *index.Live { return s.live }

// IngestSheds reports how many write requests were turned away with
// 429 by the ingest admission gate.
func (s *Server) IngestSheds() int64 { return s.ingestSheds.Load() }

// ingestGate admits one write request or sheds it. The returned
// release func is nil when the request was shed (and the 429 has
// already been written).
func (s *Server) ingestGate(w http.ResponseWriter) func() {
	select {
	case s.ingestSem <- struct{}{}:
		return func() { <-s.ingestSem }
	default:
		s.ingestSheds.Add(1)
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{
			"error": "ingest queue full, retry later",
		})
		return nil
	}
}

// handleIngest appends one document. The 200 response carries the
// assigned docid and is written only after the WAL fsync — an acked
// ingest is durable.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "ingest requires POST"})
		return
	}
	release := s.ingestGate(w)
	if release == nil {
		return
	}
	defer release()
	var req struct {
		Text string `json:"text"`
	}
	if err := decodeBody(r, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if len(index.Tokenize(req.Text)) == 0 {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "text has no indexable terms"})
		return
	}
	doc, err := s.live.Add(req.Text)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{"doc": doc})
}

// handleDelete tombstones one document; the ack is durable the same
// way an ingest ack is.
func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "delete requires POST"})
		return
	}
	release := s.ingestGate(w)
	if release == nil {
		return
	}
	defer release()
	var req struct {
		Doc *uint32 `json:"doc"`
	}
	if err := decodeBody(r, &req); err != nil || req.Doc == nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "body must be {\"doc\": N}"})
		return
	}
	switch err := s.live.Delete(*req.Doc); {
	case errors.Is(err, index.ErrNoSuchDoc):
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
	default:
		writeJSON(w, http.StatusOK, map[string]interface{}{"deleted": *req.Doc})
	}
}

// handleLiveSeal is live mode's POST /reload: force-seal the mutable
// segment so its documents move to an immutable on-disk segment now.
func (s *Server) handleLiveSeal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "reload requires POST"})
		return
	}
	if err := s.live.Seal(); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status": "sealed",
		"live":   s.live.Stats(),
	})
}

// liveStats adds the per-segment live shape — segment count, WAL
// depth, seal/compaction recency — the operator dashboards and the
// chaos harness read.
func (s *Server) liveStats(body map[string]interface{}) {
	st := s.live.Stats()
	body["documents"] = st.VisibleDocs
	body["live"] = st
	body["ingestSheds"] = s.IngestSheds()
	body["health"] = s.live.Health()
}

// liveHealthz: degraded here means some sealed segment failed its
// checksums and is quarantined; the mutable segment (and every healthy
// sealed segment) is still serving and still accepting writes, and the
// taxonomy says so.
func (s *Server) liveHealthz(context.Context) (int, interface{}) {
	h := s.live.Health()
	if !h.Degraded {
		return http.StatusOK, map[string]string{"status": "ok"}
	}
	return http.StatusOK, map[string]interface{}{
		"status":              "degraded",
		"detail":              "sealed segment quarantined, mutable segment live",
		"quarantinedSegments": h.QuarantinedSegments,
		"mutableLive":         h.MutableLive,
	}
}

// decodeBody parses a small JSON request body, rejecting oversized or
// trailing input.
func decodeBody(r *http.Request, v interface{}) error {
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON body: %v", err)
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}
