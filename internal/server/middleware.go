package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"time"
)

// statusWriter records the status code a handler writes so the logging
// middleware can report it.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wrote {
		w.status, w.wrote = code, true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.status, w.wrote = http.StatusOK, true
	}
	return w.ResponseWriter.Write(p)
}

// logRequests emits one structured line per request: method, path,
// status, latency, and the in-flight count at completion. It is also
// the metrics tap: every completed request lands in the latency
// histogram and status-class counters behind /stats.
func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		s.observe(sw.status, elapsed)
		s.log.Printf("server: %s %s status=%d latency=%s inflight=%d",
			r.Method, r.URL.Path, sw.status, elapsed.Round(time.Microsecond), s.inFlight.Load())
	})
}

// recoverPanics converts a handler panic into a 500 with a logged stack
// instead of a crashed process. http.ErrAbortHandler keeps its net/http
// meaning (abort the connection silently).
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.log.Printf("server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !sw.wrote {
				writeJSON(sw, http.StatusInternalServerError, map[string]string{"error": "internal server error"})
			}
		}()
		next.ServeHTTP(sw, r)
	})
}

// validateURL rejects oversized request URIs before any routing work.
func (s *Server) validateURL(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if len(r.URL.RequestURI()) > s.cfg.MaxURLBytes {
			writeJSON(w, http.StatusRequestURITooLong, map[string]string{
				"error": fmt.Sprintf("request URI exceeds %d bytes", s.cfg.MaxURLBytes),
			})
			return
		}
		next.ServeHTTP(w, r)
	})
}

// limitConcurrency is the load-shedding gate: at most MaxInFlight
// requests run at once; the (N+1)-th is turned away immediately with
// 429 + Retry-After rather than queued into a latency collapse.
func (s *Server) limitConcurrency(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
			s.inFlight.Add(1)
			defer func() {
				s.inFlight.Add(-1)
				<-s.sem
			}()
			next.ServeHTTP(w, r)
		default:
			s.sheds.Add(1)
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, map[string]string{
				"error": fmt.Sprintf("server at capacity (%d in-flight requests)", s.cfg.MaxInFlight),
			})
		}
	})
}

// withRequestTimeout bounds each request to RequestTimeout via
// context.WithTimeout. The handler runs against a buffered response; if
// it beats the deadline the buffer is flushed to the client, otherwise
// the client gets 504 and the late response is discarded. Handler
// panics propagate so recoverPanics sees them.
func (s *Server) withRequestTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		done := make(chan struct{})
		panicc := make(chan any, 1)
		buf := &bufferedResponse{header: http.Header{}, status: http.StatusOK}
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicc <- p
				}
			}()
			next.ServeHTTP(buf, r)
			close(done)
		}()
		select {
		case <-done:
			buf.flushTo(w)
		case p := <-panicc:
			panic(p)
		case <-ctx.Done():
			writeJSON(w, http.StatusGatewayTimeout, map[string]string{
				"error": fmt.Sprintf("request exceeded %s budget", s.cfg.RequestTimeout),
			})
		}
	})
}

// bufferedResponse is the in-memory ResponseWriter used by the timeout
// middleware. It is owned by exactly one goroutine at a time — the
// handler goroutine while running, then (only on the non-timeout path,
// after a channel synchronization) the flusher.
type bufferedResponse struct {
	header http.Header
	status int
	wrote  bool
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if !b.wrote {
		b.status, b.wrote = code, true
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if !b.wrote {
		b.status, b.wrote = http.StatusOK, true
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	for k, vs := range b.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(b.status)
	if b.body.Len() > 0 {
		if _, err := w.Write(b.body.Bytes()); err != nil {
			// The client went away; nothing useful to do.
			_ = err
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The connection is gone; the logging middleware still records
		// the intended status.
		_ = err
	}
}
