package server

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/index"
)

// TestMiddlewareChain is the table-driven hardening check from the
// issue: a panicking handler yields a 500 (not a crashed process), a
// handler that blows the request budget yields a timeout status, and a
// well-behaved handler passes through untouched.
func TestMiddlewareChain(t *testing.T) {
	answered := make(chan struct{})
	lateErr := make(chan error, 1)
	cases := []struct {
		name       string
		handler    http.HandlerFunc
		wantStatus int
		wantBody   string
		check      func(t *testing.T, rec *httptest.ResponseRecorder) // runs once the chain returned
	}{
		{
			name:       "panic becomes 500",
			handler:    func(w http.ResponseWriter, r *http.Request) { panic("posting list exploded") },
			wantStatus: http.StatusInternalServerError,
			wantBody:   "internal server error",
		},
		{
			name: "slow handler times out",
			handler: func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(300 * time.Millisecond)
				w.Write([]byte("too late"))
			},
			wantStatus: http.StatusGatewayTimeout,
			wantBody:   "budget",
		},
		{
			name: "fast handler passes through",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("X-From-Handler", "yes")
				w.WriteHeader(http.StatusTeapot)
				w.Write([]byte("ok"))
			},
			wantStatus: http.StatusTeapot,
			wantBody:   "ok",
		},
		{
			name: "response started before the deadline completes after it",
			handler: func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusAccepted)
				w.Write([]byte("started, "))
				<-r.Context().Done()
				if _, err := w.Write([]byte("finished")); err != nil {
					t.Errorf("write after the deadline of a started response: %v", err)
				}
			},
			wantStatus: http.StatusAccepted,
			wantBody:   "started, finished",
		},
		{
			name: "write after the 504 is refused",
			handler: func(w http.ResponseWriter, r *http.Request) {
				<-r.Context().Done()
				<-answered
				_, err := w.Write([]byte("too late"))
				lateErr <- err
			},
			wantStatus: http.StatusGatewayTimeout,
			wantBody:   "budget",
			check: func(t *testing.T, rec *httptest.ResponseRecorder) {
				close(answered)
				if err := <-lateErr; !errors.Is(err, http.ErrHandlerTimeout) {
					t.Fatalf("late Write returned %v, want http.ErrHandlerTimeout", err)
				}
				if strings.Contains(rec.Body.String(), "too late") {
					t.Fatalf("late bytes reached the client: %q", rec.Body.String())
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var logBuf bytes.Buffer
			s := newTestServer(t, Config{RequestTimeout: 50 * time.Millisecond, Logger: log.New(&logBuf, "", 0)})
			h := s.chain(tc.handler)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d", rec.Code, tc.wantStatus)
			}
			if !strings.Contains(rec.Body.String(), tc.wantBody) {
				t.Fatalf("body %q, want substring %q", rec.Body.String(), tc.wantBody)
			}
			if !strings.Contains(logBuf.String(), "status=") {
				t.Fatalf("request was not logged: %q", logBuf.String())
			}
			if tc.name == "panic becomes 500" && !strings.Contains(logBuf.String(), "panic serving") {
				t.Fatalf("panic stack was not logged: %q", logBuf.String())
			}
			if tc.name == "fast handler passes through" && rec.Header().Get("X-From-Handler") != "yes" {
				t.Fatal("handler headers were not flushed through the timeout buffer")
			}
			if tc.check != nil {
				tc.check(t, rec)
			}
		})
	}
}

// deadlineBackend is a search that runs until its context is done and
// then reports why, as a shard fan-out cut off at the budget does.
type deadlineBackend struct{}

func (deadlineBackend) Search(ctx context.Context, _ index.Request) (index.Answer, error) {
	<-ctx.Done()
	return index.Answer{}, ctx.Err()
}
func (deadlineBackend) Gauges(map[string]interface{})              {}
func (deadlineBackend) Healthz(context.Context) (int, interface{}) { return http.StatusOK, nil }

// TestSearchDeadlineAnswers504: a search that fails with ctx.Err() at
// the deadline tries to answer 500 at the very moment the middleware
// answers 504. The 504 must win every time: a response may be started
// only while the request's context is not done.
func TestSearchDeadlineAnswers504(t *testing.T) {
	const requests, workers = 500, 4
	h := NewFront(deadlineBackend{}, Config{RequestTimeout: 5 * time.Millisecond, Logger: quiet}).Handler()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requests/workers; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=a&mode=or", nil))
				if rec.Code != http.StatusGatewayTimeout || !strings.Contains(rec.Body.String(), "request exceeded 5ms budget") {
					t.Errorf("status %d body %q, want 504 with the budget message", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestLoadShedding checks the semaphore gate: with N slots occupied,
// the (N+1)-th concurrent request is shed with 429 + Retry-After, and
// capacity freed by a finishing request is reusable.
func TestLoadShedding(t *testing.T) {
	const n = 2
	s := newTestServer(t, Config{MaxInFlight: n, RequestTimeout: 5 * time.Second})
	entered := make(chan struct{}, n)
	release := make(chan struct{})
	h := s.chain(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.Write([]byte("done"))
	}))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL)
			if err != nil {
				t.Errorf("occupying request: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < n; i++ {
		<-entered // all N slots are genuinely in-flight
	}

	resp, err := http.Get(ts.URL) // the (N+1)-th
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("(N+1)-th request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(release)
	wg.Wait()
	for i := 0; i < n; i++ {
		if c := <-codes; c != http.StatusOK {
			t.Fatalf("occupying request finished with %d", c)
		}
	}
	// Capacity is back: the next request succeeds.
	resp, err = http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after release: status %d", resp.StatusCode)
	}
}

// TestGracefulShutdownCompletesInFlight starts a real listener, parks a
// request inside a slow handler, cancels the serve context, and
// asserts the in-flight request still completes with 200 while Serve
// returns nil within the drain deadline.
func TestGracefulShutdownCompletesInFlight(t *testing.T) {
	entered := make(chan struct{})
	s := newTestServer(t, Config{
		RequestTimeout: 5 * time.Second,
		DrainDeadline:  5 * time.Second,
		Routes: func(mux *http.ServeMux) {
			mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
				close(entered)
				time.Sleep(250 * time.Millisecond)
				w.Write([]byte(`"survived the drain"`))
			})
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	body := make(chan string, 1)
	status := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			status <- -1
			body <- err.Error()
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
		body <- string(b)
	}()

	<-entered // the request is in-flight
	cancel()  // begin graceful shutdown while it runs

	if st := <-status; st != http.StatusOK {
		t.Fatalf("in-flight request during shutdown: status %d, body %q", st, <-body)
	}
	if b := <-body; !strings.Contains(b, "survived") {
		t.Fatalf("in-flight response truncated: %q", b)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil (clean drain)", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return within the drain deadline")
	}
	// The listener is closed: new connections fail.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestDrainDeadlineExceeded: a handler slower than the drain budget
// forces Serve to give up and report it.
func TestDrainDeadlineExceeded(t *testing.T) {
	entered := make(chan struct{})
	s := newTestServer(t, Config{
		RequestTimeout: 10 * time.Second,
		WriteTimeout:   10 * time.Second,
		DrainDeadline:  100 * time.Millisecond,
		Routes: func(mux *http.ServeMux) {
			mux.HandleFunc("/glacial", func(w http.ResponseWriter, r *http.Request) {
				close(entered)
				time.Sleep(2 * time.Second)
			})
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	go http.Get("http://" + ln.Addr().String() + "/glacial")
	<-entered
	cancel()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve returned nil despite a request outliving the drain deadline")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve hung past the drain deadline")
	}
}
