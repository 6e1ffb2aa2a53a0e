package shard

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/server"
)

// Request and Merged are the query seam's types (index.Request,
// index.Answer) under the names this package's callers already use. The
// same Request goes to every shard verbatim — doc partitioning means
// shards differ in data, not in query. A Backend answers in SHARD-LOCAL
// document ids; the Router maps them to the global space with GlobalID
// before merging and returns a Merged in global ids.
type (
	Request = index.Request
	Merged  = index.Answer
)

// Backend is one replica of one shard: something that can answer a
// Request over that shard's documents. The two implementations are
// IndexBackend (in-process, used by tests, the oracle, and `bvrouter
// -local`) and HTTPBackend (a remote bvserve process, the deployment
// topology). Search must honor ctx cancellation — hedging cancels the
// losing attempt through it.
type Backend interface {
	index.Searcher
	Health(ctx context.Context) error
	Name() string
}

// IndexBackend answers queries directly from an in-process index.
type IndexBackend struct {
	Idx   *index.Index
	Label string
	// Delay, when set, sleeps before answering — the straggler injection
	// knob the hedging benchmark and tests use. Sleeps burn no CPU, so
	// an injected straggler distorts latency without distorting the
	// compute the measurement is about.
	Delay time.Duration
}

func (b *IndexBackend) Name() string {
	if b.Label != "" {
		return b.Label
	}
	return "local"
}

func (b *IndexBackend) Health(ctx context.Context) error { return nil }

func (b *IndexBackend) Search(ctx context.Context, req Request) (index.Answer, error) {
	if b.Delay > 0 {
		t := time.NewTimer(b.Delay)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return index.Answer{}, ctx.Err()
		}
	}
	return b.Idx.Search(ctx, req)
}

// HTTPBackend answers queries by calling a bvserve replica's /search
// endpoint. It asks for a boolean answer as a posting
// (server.PostingContentType) and reads whichever encoding the reply's
// Content-Type names: a posting with server.ParsePosting — or, for a
// request that takes words, server.ParsePostingWords, so a dense reply
// becomes words with no docid list — JSON — every
// top-k answer and error, and any answer from a front that does not
// know the posting — with server.ParseSearchResponse. So any bvserve,
// local process or remote machine, can stand behind the router
// unchanged.
type HTTPBackend struct {
	// Base is the replica's root URL, e.g. "http://10.0.0.7:8080".
	Base   string
	Client *http.Client
}

func (b *HTTPBackend) Name() string { return b.Base }

func (b *HTTPBackend) client() *http.Client {
	if b.Client != nil {
		return b.Client
	}
	return http.DefaultClient
}

func (b *HTTPBackend) Health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.Base+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := b.client().Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("shard: %s/readyz: %s", b.Base, resp.Status)
	}
	return nil
}

// Search asks the replica. A 4xx other than 429 is the caller's fault
// — the same request would fail on every replica of every shard — so it
// comes back as *index.BadRequest carrying the replica's own message;
// anything else that is not a complete 200 answer is a replica failure.
// That includes a partial answer, from a replica that is itself a
// router: merged as if complete, it would silently drop documents, so
// the router fails over or degrades the shard instead.
func (b *HTTPBackend) Search(ctx context.Context, req Request) (index.Answer, error) {
	q := url.Values{}
	q.Set("q", strings.Join(req.Terms, " "))
	q.Set("mode", req.Mode)
	if req.Mode == "topk" {
		q.Set("k", strconv.Itoa(req.K))
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, b.Base+"/search?"+q.Encode(), nil)
	if err != nil {
		return index.Answer{}, err
	}
	hreq.Header.Set("Accept", server.PostingContentType)
	resp, err := b.client().Do(hreq)
	if err != nil {
		return index.Answer{}, err
	}
	defer resp.Body.Close()
	body, err := readBody(resp.Body, resp.ContentLength, maxSearchBody)
	if err != nil {
		return index.Answer{}, fmt.Errorf("shard: %s: /search (%s): %w", b.Base, resp.Status, err)
	}
	if resp.Header.Get("Content-Type") == server.PostingContentType {
		if resp.StatusCode != http.StatusOK || req.Mode == "topk" {
			return index.Answer{}, fmt.Errorf("shard: %s: /search (%s): unexpected posting answer to mode %q", b.Base, resp.Status, req.Mode)
		}
		var a index.Answer
		if req.Words {
			a.Docs, a.Words, err = server.ParsePostingWords(body, maxPostingDocs)
		} else {
			a.Docs, err = server.ParsePosting(body, maxPostingDocs)
		}
		if err != nil {
			return index.Answer{}, fmt.Errorf("shard: %s: bad /search posting: %w", b.Base, err)
		}
		return a, nil
	}
	wire, errMsg, perr := server.ParseSearchResponse(body)
	if perr != nil {
		return index.Answer{}, fmt.Errorf("shard: %s: bad /search response (%s): %w", b.Base, resp.Status, perr)
	}
	if resp.StatusCode == http.StatusOK {
		if wire.Partial {
			return index.Answer{}, fmt.Errorf("shard: %s: /search answer is partial (shards %v of %d degraded)", b.Base, wire.DegradedShards, wire.Shards)
		}
		return index.Answer{Docs: wire.Docs, Ranked: wire.Ranked, TopK: wire.TopK}, nil
	}
	if errMsg == "" {
		errMsg = resp.Status
	}
	if c := resp.StatusCode; c >= 400 && c < 500 && c != http.StatusTooManyRequests {
		return index.Answer{}, &index.BadRequest{Msg: errMsg}
	}
	return index.Answer{}, fmt.Errorf("shard: %s: /search: %s", b.Base, errMsg)
}

// maxSearchBody bounds one replica's /search body: far above any answer
// a shard sends, small enough that a broken replica cannot exhaust the
// router's memory.
const maxSearchBody = 64 << 20

// maxPostingDocs bounds a posting answer's docids at the most a JSON
// body within maxSearchBody can carry, a digit and a comma each, so the
// smaller encoding cannot smuggle in a larger answer.
const maxPostingDocs = maxSearchBody / 2

// readBody reads a response body of at most limit bytes into one
// buffer, allocated once from Content-Length when the sender declared it
// (length >= 0) and grown otherwise. A longer body is refused with an
// error naming the limit, never truncated.
func readBody(r io.Reader, length, limit int64) ([]byte, error) {
	if length > limit {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte limit", length, limit)
	}
	if length >= 0 {
		buf := make([]byte, length)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("reading a %d-byte body: %w", length, err)
		}
		return buf, nil
	}
	buf, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(buf)) > limit {
		return nil, fmt.Errorf("body exceeds the %d-byte limit", limit)
	}
	return buf, nil
}
