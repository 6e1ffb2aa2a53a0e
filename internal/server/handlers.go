package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/index"
	"repro/internal/ops"
)

// Handler builds the full route set: /search and /stats, the mode-only
// routes, and Config.Routes, all inside chain.
func (s *Server) Handler() http.Handler {
	app := http.NewServeMux()
	app.HandleFunc("/search", s.handleSearch)
	app.HandleFunc("/stats", s.handleStats)
	if s.mode.routes != nil {
		s.mode.routes(app)
	}
	if s.cfg.Routes != nil {
		s.cfg.Routes(app)
	}
	return s.chain(app)
}

// chain wraps an application handler in the one middleware chain.
// Application routes run inside URL validation, load shedding and the
// request timeout; the probes /healthz and /readyz bypass those gates
// so they stay answerable under full load. Logging and panic recovery
// wrap everything.
func (s *Server) chain(app http.Handler) http.Handler {
	root := http.NewServeMux()
	root.HandleFunc("/healthz", s.handleHealthz)
	root.HandleFunc("/readyz", s.handleReadyz)
	root.Handle("/", s.validateURL(s.limitConcurrency(s.withRequestTimeout(app))))
	return s.logRequests(s.recoverPanics(root))
}

// handleHealthz is the liveness probe: the process is up and able to
// answer HTTP, plus what the mode knows about its own damage — a
// degraded index, a quarantined segment, shards down. A degraded answer
// is still 200 (alive and serving what it can); only a router with no
// shard left answers 503.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code, body := s.mode.healthz(r.Context())
	writeJSON(w, code, body)
}

// handleReadyz is the readiness probe: 200 only while serving traffic,
// 503 before startup finishes and as soon as draining begins so load
// balancers stop routing here ahead of shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// handleStats reports the serving-side gauges every mode has plus the
// mode's own keys.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	body := map[string]interface{}{
		"inFlight": s.inFlight.Load(),
		"sheds":    s.Sheds(),
		"ready":    s.Ready(),
		"latency":  s.LatencySummary(),
		"statuses": s.StatusCounts(),
	}
	s.mode.stats(body)
	writeJSON(w, http.StatusOK, body)
}

// SearchResponse is the one /search JSON shape, written by every mode
// with WriteJSON (AppendJSON's bytes) and read back by shard.HTTPBackend with
// ParseSearchResponse (wire.go); its tags are the spec both follow.
// TopK carries the pruning work counters for ranked queries, so callers
// (and the load harness) can see how many blocks Block-Max-WAND
// actually decoded, and how many segments or shards scored densely.
// The last three fields appear only on a router's answers. Words, when
// set, stands in for Docs: a dense answer's docids as a word array,
// written as the "docs" member they make up.
type SearchResponse struct {
	Query          []string       `json:"query"`
	Mode           string         `json:"mode"`
	Docs           []uint32       `json:"docs,omitempty"`
	Words          *ops.Words     `json:"-"`
	Ranked         []index.Result `json:"ranked,omitempty"`
	Matches        int            `json:"matches"`
	TopK           *ops.TopKStats `json:"topk,omitempty"`
	Partial        bool           `json:"partial,omitempty"`
	DegradedShards []int          `json:"degradedShards,omitempty"`
	Shards         int            `json:"shards,omitempty"`
}

// parseSearch is the one /search validation: tokenize, term limit,
// mode, k and its limit. Every refusal is an *index.BadRequest.
func (s *Server) parseSearch(q url.Values) (index.Request, error) {
	req := index.Request{Mode: q.Get("mode"), Terms: index.Tokenize(q.Get("q")), Words: true}
	if len(req.Terms) == 0 {
		return req, &index.BadRequest{Msg: "missing or empty q parameter"}
	}
	if len(req.Terms) > s.cfg.MaxQueryTerms {
		return req, &index.BadRequest{Msg: fmt.Sprintf("query has %d terms, limit is %d", len(req.Terms), s.cfg.MaxQueryTerms)}
	}
	switch req.Mode {
	case "":
		req.Mode = "and"
	case "and", "or":
	case "topk":
		req.K, req.Words = 10, false
		if ks := q.Get("k"); ks != "" {
			k, err := strconv.Atoi(ks)
			if err != nil || k < 1 {
				return req, &index.BadRequest{Msg: "bad k parameter"}
			}
			req.K = k
		}
		if req.K > s.cfg.MaxK {
			return req, &index.BadRequest{Msg: fmt.Sprintf("k=%d exceeds limit %d", req.K, s.cfg.MaxK)}
		}
	default:
		return req, index.ErrBadMode
	}
	return req, nil
}

// handleSearch answers conjunctive/disjunctive/top-k queries from the
// mode's Searcher. The Searcher is pinned once per request and released
// when the response is written, so in static mode a concurrent hot
// reload never changes the index mid-query and never unmaps bytes a
// query is still reading. A partial answer from a router is still 200:
// a dead shard is a documented subset ("shard 3 of 8 degraded, results
// partial"), not a failed query. A boolean request takes a dense answer
// as words (index.Request.Words), which go to the wire as they are. The
// JSON body streams through one pooled fixed-size chunk (WriteJSON),
// with its Content-Length, and the timeout middleware passes writes
// through rather than copying them. A complete and/or answer to a
// request that accepts PostingContentType is written as a posting
// instead; nothing else about the request or answer changes.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, err := s.parseSearch(r.URL.Query())
	if err != nil {
		writeSearchError(w, err)
		return
	}
	searcher, release := s.mode.pin()
	defer release()
	ans, err := searcher.Search(r.Context(), req)
	if err != nil {
		writeSearchError(w, err)
		return
	}
	if ans.Partial {
		s.log.Printf("server: query %v: %d of %d shards degraded %v, results partial",
			req.Terms, len(ans.Degraded), ans.Shards, ans.Degraded)
	}
	if req.Mode != "topk" && !ans.Partial && acceptsPosting(r.Header) {
		// A Searcher's docids are sorted and distinct, so the encoder
		// does not fail; if it ever did, the answer goes out as JSON.
		if body, err := postingBody(ans); err == nil {
			w.Header().Set("Vary", "Accept")
			writeBody(w, PostingContentType, body)
			return
		}
	}
	matches := len(ans.Docs)
	switch {
	case req.Mode == "topk":
		matches = len(ans.Ranked)
	case ans.Words != nil:
		matches = ans.Words.Len()
	}
	resp := SearchResponse{
		Query: req.Terms, Mode: req.Mode,
		Docs: ans.Docs, Words: ans.Words, Ranked: ans.Ranked, Matches: matches, TopK: ans.TopK,
		Partial: ans.Partial, DegradedShards: ans.Degraded, Shards: ans.Shards,
	}
	chunk := chunkPool.Get().(*[ChunkSize]byte)
	// A failed write means the client is gone; the logging middleware
	// still records the status.
	_ = resp.WriteJSON(w, chunk[:0])
	chunkPool.Put(chunk)
}

// postingBody is a boolean answer as the body of a posting answer.
func postingBody(ans index.Answer) ([]byte, error) {
	if ans.Words != nil {
		return MarshalPostingWords(*ans.Words), nil
	}
	return MarshalPosting(ans.Docs)
}

// writeBody answers 200 with body, its Content-Type and Content-Length.
func writeBody(w http.ResponseWriter, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	// A failed write means the client is gone; the logging middleware
	// still records the status.
	_, _ = w.Write(body)
}

// acceptsPosting reports whether an Accept header lists
// PostingContentType, with or without media-type parameters.
func acceptsPosting(h http.Header) bool {
	for _, v := range h.Values("Accept") {
		for _, item := range strings.Split(v, ",") {
			mediaType, _, _ := strings.Cut(item, ";")
			if strings.EqualFold(strings.TrimSpace(mediaType), PostingContentType) {
				return true
			}
		}
	}
	return false
}

// writeSearchError is the one /search error shape: 400 with the bare
// message for a caller error (so a router relays a shard's refusal
// byte for byte), 503 when nothing was there to answer, 500 otherwise.
func writeSearchError(w http.ResponseWriter, err error) {
	code, msg := http.StatusInternalServerError, err.Error()
	var bad *index.BadRequest
	switch {
	case errors.As(err, &bad):
		code, msg = http.StatusBadRequest, bad.Msg
	case errors.Is(err, index.ErrUnavailable):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": msg})
}

// staticHealthz additionally reports whether the served index is
// degraded — opened in salvage mode with sections quarantined — so
// operators monitoring /healthz see corruption the moment a degraded
// index starts serving; see the corruption-recovery runbook.
func (s *Server) staticHealthz(context.Context) (int, interface{}) {
	snap := s.acquire()
	defer snap.Release()
	h := snap.Index().Health()
	if !h.Degraded {
		return http.StatusOK, map[string]string{"status": "ok"}
	}
	return http.StatusOK, map[string]interface{}{
		"status":              "degraded",
		"quarantinedSections": h.QuarantinedSections,
		"quarantinedTerms":    h.QuarantinedTerms,
		"quarantinedImpacts":  h.QuarantinedImpacts,
	}
}

// handleReload swaps in a freshly loaded index without dropping
// in-flight requests. POST only; SIGHUP reaches the same code path.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "reload requires POST"})
		return
	}
	if err := s.Reload(); err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	snap := s.acquire()
	defer snap.Release()
	idx := snap.Index()
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"status":     "reloaded",
		"docs":       idx.Docs(),
		"terms":      idx.Terms(),
		"reloads":    s.Reloads(),
		"generation": s.Generation(),
	})
}

// staticStats adds the served index's shape and the reload gauges.
func (s *Server) staticStats(body map[string]interface{}) {
	snap := s.acquire()
	defer snap.Release()
	idx := snap.Index()
	body["documents"] = idx.Docs()
	body["terms"] = idx.Terms()
	body["compressedBytes"] = idx.SizeBytes()
	body["reloads"] = s.Reloads()
	body["generation"] = s.Generation()
	body["health"] = idx.Health()
	body["postingCache"] = s.CacheStats()
}
