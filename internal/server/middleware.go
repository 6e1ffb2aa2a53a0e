package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
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
// context.WithTimeout. The handler writes straight through to the
// client: its first WriteHeader or Write claims the response, and it
// may claim only while the context is not done. So a response started
// within the budget completes, however long it takes, and one not
// started by the deadline — or refused at it, as a search that returns
// ctx.Err() is — gets 504; the handler's later writes then fail with
// http.ErrHandlerTimeout and never reach the client. Handler panics
// propagate so recoverPanics sees them.
func (s *Server) withRequestTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		tw := &timeoutWriter{w: w, ctx: ctx, header: http.Header{}}
		done := make(chan struct{})
		panicc := make(chan any, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicc <- p
				}
			}()
			next.ServeHTTP(tw, r)
			close(done)
		}()
		select {
		case <-done:
			// A handler that wrote nothing answers 200 with its
			// headers, unless the deadline passed first.
			if tw.claim(http.StatusOK) == nil {
				return
			}
		case p := <-panicc:
			panic(p)
		case <-ctx.Done():
			if tw.started() {
				// The handler owns the response; let it finish.
				select {
				case <-done:
				case p := <-panicc:
					panic(p)
				}
				return
			}
		}
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{
			"error": fmt.Sprintf("request exceeded %s budget", s.cfg.RequestTimeout),
		})
	})
}

// timeoutWriter is the handler's ResponseWriter under
// withRequestTimeout. Whichever of the handler and the middleware
// claims the response under mu owns w: the handler by starting it
// before ctx is done, the middleware by finding it unstarted once ctx
// is. The handler's headers go to a map of its own until its claim
// copies them, so the middleware's 504 never sees them.
type timeoutWriter struct {
	w      http.ResponseWriter
	ctx    context.Context
	header http.Header

	mu      sync.Mutex
	claimed bool // the handler started the response
}

func (tw *timeoutWriter) Header() http.Header { return tw.header }

func (tw *timeoutWriter) WriteHeader(code int) {
	// A refused claim leaves the response to the middleware's 504.
	_ = tw.claim(code)
}

func (tw *timeoutWriter) Write(p []byte) (int, error) {
	if err := tw.claim(http.StatusOK); err != nil {
		return 0, err
	}
	return tw.w.Write(p)
}

// claim starts the response with code on the handler's behalf, once,
// copying the handler's headers. It fails with http.ErrHandlerTimeout
// once ctx is done and the response was not yet started.
func (tw *timeoutWriter) claim(code int) error {
	tw.mu.Lock()
	if tw.claimed {
		tw.mu.Unlock()
		return nil
	}
	if tw.ctx.Err() != nil {
		tw.mu.Unlock()
		return http.ErrHandlerTimeout
	}
	tw.claimed = true
	tw.mu.Unlock()
	// Once claimed, w is the handler's alone: the middleware touches it
	// again only after the handler returns.
	for k, vs := range tw.header {
		for _, v := range vs {
			tw.w.Header().Add(k, v)
		}
	}
	tw.w.WriteHeader(code)
	return nil
}

// started reports whether the handler claimed the response. Called
// once ctx is done, a false answer is final: every later claim fails.
func (tw *timeoutWriter) started() bool {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	return tw.claimed
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
