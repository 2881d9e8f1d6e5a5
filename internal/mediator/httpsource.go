package mediator

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/dtd"
	"repro/internal/xmlmodel"
)

// Defaults for the distributed-stacking transport. A remote mediator is
// just another network service: it can hang (so every request carries a
// timeout) and it can hiccup (so transient failures are retried a bounded
// number of times with exponential backoff).
const (
	// DefaultHTTPTimeout bounds each individual request attempt when the
	// caller passes a nil *http.Client.
	DefaultHTTPTimeout = 10 * time.Second
	// DefaultHTTPRetries is the number of re-attempts after the first
	// failed request (so a fetch makes at most 1+DefaultHTTPRetries
	// round trips).
	DefaultHTTPRetries = 2
	// DefaultHTTPBackoff is the delay before the first retry; it doubles
	// on each subsequent retry, up to DefaultHTTPMaxBackoff.
	DefaultHTTPBackoff = 100 * time.Millisecond
	// DefaultHTTPMaxBackoff caps the exponential backoff: without a cap,
	// generous retry counts double past any useful delay (and eventually
	// past the int64 range of time.Duration).
	DefaultHTTPMaxBackoff = 30 * time.Second
	// maxResponseBytes bounds how much of a remote response is read. A
	// response exceeding it fails with ErrBodyTooLarge instead of being
	// silently truncated into a parse error (or worse, into a shorter
	// well-formed document).
	maxResponseBytes = 16 << 20
)

// ErrBodyTooLarge reports a remote response larger than maxResponseBytes.
// It is not retryable: the remote will answer the same way again.
var ErrBodyTooLarge = errors.New("response body exceeds 16 MiB limit")

// HTTPSource is a wrapper over a remote mediator view served over HTTP
// (see internal/serve): the distributed form of mediator stacking. The
// remote view's *inferred* DTD becomes this source's schema — exactly the
// paper's point that "lower level mediators can derive and provide their
// view DTDs to the higher level ones" — so a local mediator can run view
// DTD inference, query simplification and composition against a remote
// MIX instance without ever seeing its raw sources.
//
// The transport is resilient by default: requests are bounded by the
// client timeout and the caller's context, and transport errors or 5xx
// responses are retried with exponential backoff. 4xx responses are not
// retried — an unknown view stays unknown no matter how often it is asked
// for.
type HTTPSource struct {
	name    string
	client  *http.Client
	viewURL string
	schema  *dtd.DTD

	maxRetries  int
	backoff     time.Duration
	maxBackoff  time.Duration
	retryBudget *RetryBudget
	retries     atomic.Int64
	// rawDTD is the remote /dtd response exactly as received. The cluster
	// tier serves it verbatim on forwarded DTD requests, so a forwarded
	// response is bit-identical to the owner's even if a parse/print
	// round trip of the DTD were ever to normalize formatting.
	rawDTD string
	// sleep waits between retries (honoring ctx); tests inject a stub to
	// observe the requested delays without actually waiting.
	sleep func(ctx context.Context, d time.Duration) error
}

// HTTPOption configures an HTTPSource.
type HTTPOption func(*HTTPSource)

// WithRetries sets the number of re-attempts after a failed request
// (0 disables retrying).
func WithRetries(n int) HTTPOption {
	return func(s *HTTPSource) {
		if n >= 0 {
			s.maxRetries = n
		}
	}
}

// WithBackoff sets the delay before the first retry (doubled per retry,
// capped by WithMaxBackoff).
func WithBackoff(d time.Duration) HTTPOption {
	return func(s *HTTPSource) {
		if d > 0 {
			s.backoff = d
		}
	}
}

// WithMaxBackoff caps the exponential retry backoff.
func WithMaxBackoff(d time.Duration) HTTPOption {
	return func(s *HTTPSource) {
		if d > 0 {
			s.maxBackoff = d
		}
	}
}

// WithRetryBudget makes every retry spend a token from b before sleeping
// its backoff; when the bucket is dry the fetch fails immediately with
// the last error instead of burning more attempts (and the backoff sleep
// before them) against a browned-out remote. Share one budget between a
// source's retries and its ReplicaSet's hedges (ReplicaSet.Budget) to cap
// the source's total load amplification.
func WithRetryBudget(b *RetryBudget) HTTPOption {
	return func(s *HTTPSource) { s.retryBudget = b }
}

// NewHTTPSource contacts baseURL (a mixserve instance) and registers the
// named remote view as a source. The view DTD is fetched eagerly — schema
// knowledge is what the mediator needs at view-definition time. A nil
// client gets a DefaultHTTPTimeout-bounded one (never the timeout-less
// http.DefaultClient: a hung remote must not wedge the mediator's
// goroutine fan-out).
func NewHTTPSource(client *http.Client, baseURL, view string, opts ...HTTPOption) (*HTTPSource, error) {
	return NewHTTPSourceContext(context.Background(), client, baseURL, view, opts...)
}

// NewHTTPSourceContext is NewHTTPSource with a caller-supplied context for
// the eager view-DTD fetch. The cluster tier needs it: when a forward is
// built lazily inside a request, the DTD fetch must carry that request's
// deadline and ForwardInfo hop path, or the loop guard would not see the
// very first round trip.
func NewHTTPSourceContext(ctx context.Context, client *http.Client, baseURL, view string, opts ...HTTPOption) (*HTTPSource, error) {
	if client == nil {
		client = &http.Client{Timeout: DefaultHTTPTimeout}
	}
	base := strings.TrimRight(baseURL, "/")
	s := &HTTPSource{
		name:       base + "/views/" + view,
		client:     client,
		viewURL:    base + "/views/" + view,
		maxRetries: DefaultHTTPRetries,
		backoff:    DefaultHTTPBackoff,
		maxBackoff: DefaultHTTPMaxBackoff,
	}
	s.sleep = func(ctx context.Context, d time.Duration) error {
		select {
		case <-time.After(d):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	for _, opt := range opts {
		opt(s)
	}
	body, err := s.get(ctx, s.viewURL+"/dtd")
	if err != nil {
		return nil, fmt.Errorf("mediator: fetching remote view DTD: %w", err)
	}
	d, err := dtd.Parse(body)
	if err != nil {
		return nil, fmt.Errorf("mediator: remote view DTD unparseable: %w", err)
	}
	if errs := d.Check(); len(errs) > 0 {
		return nil, fmt.Errorf("mediator: remote view DTD inconsistent: %v", errs[0])
	}
	s.schema = d
	s.rawDTD = body
	return s, nil
}

// SchemaText returns the remote view DTD exactly as the peer served it.
func (s *HTTPSource) SchemaText() string { return s.rawDTD }

// GetPath performs a raw GET of a sibling endpoint of the source's view
// (e.g. "/sdtd", "/outline") under the source's retry/budget policy. The
// cluster tier uses it to pass through endpoints whose payload the
// forwarding node cannot reconstruct from the schema and document alone.
func (s *HTTPSource) GetPath(ctx context.Context, suffix string) (string, error) {
	return s.get(ctx, s.viewURL+suffix)
}

// Name implements Wrapper; it is the view's URL, which doubles as a
// globally meaningful source identifier.
func (s *HTTPSource) Name() string { return s.name }

// Schema implements Wrapper.
func (s *HTTPSource) Schema() *dtd.DTD { return s.schema }

// Retries reports the total number of transient-failure retries this
// source has performed; Mediator.Stats sums it into Stats.Retries.
func (s *HTTPSource) Retries() int64 { return s.retries.Load() }

// Fetch implements Wrapper: it retrieves the materialized remote view and
// validates it against the remote-provided schema before handing it to the
// local mediator (never trust the wire). One scan of the payload both
// validates it, on the compiled content-model DFAs, and builds the tree
// the mediator materializes (dtd.ParseValid); the first malformed token or
// schema violation ends the scan.
func (s *HTTPSource) Fetch(ctx context.Context) (*xmlmodel.Document, error) {
	body, err := s.get(ctx, s.viewURL)
	if err != nil {
		return nil, fmt.Errorf("mediator: fetching remote view: %w", err)
	}
	doc, err := s.schema.ParseValid(body)
	if err != nil {
		var perr *xmlmodel.ParseError
		if errors.As(err, &perr) {
			return nil, fmt.Errorf("mediator: remote view unparseable: %w", err)
		}
		return nil, fmt.Errorf("mediator: remote view violates its own DTD: %w", err)
	}
	return doc, nil
}

// get performs a GET with bounded retries: transport errors and 5xx
// responses back off exponentially (doubling up to maxBackoff, with
// equal-jitter randomization so a fleet of sources retrying the same dead
// remote does not synchronize) and retry up to maxRetries times; any
// other non-200, and an oversized body (ErrBodyTooLarge), fail
// immediately. Cancellation of ctx cuts both the in-flight request (via
// the request context) and the backoff sleeps.
func (s *HTTPSource) get(ctx context.Context, url string) (string, error) {
	var lastErr error
	backoff := s.backoff
	if backoff > s.maxBackoff {
		backoff = s.maxBackoff
	}
	for attempt := 0; ; attempt++ {
		body, status, err := s.tryGet(ctx, url)
		switch {
		case errors.Is(err, ErrBodyTooLarge):
			return "", fmt.Errorf("GET %s: %w", url, err)
		case err != nil:
			lastErr = err
		case status == http.StatusOK:
			return body, nil
		case status >= 500:
			lastErr = fmt.Errorf("GET %s: %d: %s", url, status, strings.TrimSpace(body))
		default:
			return "", fmt.Errorf("GET %s: %d: %s", url, status, strings.TrimSpace(body))
		}
		// Give up without sleeping when no retry can follow: the retry
		// count is exhausted, the caller's context is already done (a
		// cancelled fetch must not burn a full backoff first), or the
		// retry budget is dry (a brownout must not be amplified).
		if attempt >= s.maxRetries || ctx.Err() != nil {
			return "", lastErr
		}
		if s.retryBudget != nil && !s.retryBudget.Allow() {
			return "", lastErr
		}
		if s.sleep(ctx, jitter(backoff)) != nil {
			return "", lastErr
		}
		if backoff <= s.maxBackoff/2 {
			backoff *= 2 // doubling past maxBackoff/2 would exceed the cap
		} else {
			backoff = s.maxBackoff
		}
		s.retries.Add(1)
	}
}

// jitter spreads a backoff delay over [d/2, d] (equal jitter): the cap
// stays a true upper bound while concurrent retriers decorrelate.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

func (s *HTTPSource) tryGet(ctx context.Context, url string) (string, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return "", 0, err
	}
	fi := ForwardInfoFrom(ctx)
	if fi != nil && len(fi.Hops) > 0 {
		// A cluster forward announces its hop path so the peer can refuse
		// loops (421, not retried — the path would be the same next time).
		req.Header.Set(ForwardHeader, strings.Join(fi.Hops, ","))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	// Read one byte past the limit: exactly-at-the-limit bodies are legal,
	// and anything longer is detected as oversized rather than silently
	// truncated into a parse failure on a cut-off document.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return "", 0, err
	}
	if len(body) > maxResponseBytes {
		return "", resp.StatusCode, ErrBodyTooLarge
	}
	if fi != nil && resp.StatusCode == http.StatusOK {
		// Capture the peer's pruned/degraded/stale taxonomy so the
		// forwarding node passes it through instead of erasing it.
		fi.record(resp.Header)
	}
	return string(body), resp.StatusCode, nil
}
