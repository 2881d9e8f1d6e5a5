package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/xmlmodel"
)

// bspan is a span recorded by the benchmark at a boundary it intercepts
// from outside the program. Trace is the request ID (the X-Mix-Trace-Id the
// program's own spans carry); Parent is the program span that was current
// when the boundary was crossed (0 for the HTTP middleware, which encloses
// the program's root span).
type bspan struct {
	Name   string    `json:"name"`
	Trace  string    `json:"trace"`
	Parent int64     `json:"parent,omitempty"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Attr   string    `json:"attr,omitempty"`
	Bytes  int       `json:"bytes,omitempty"`
}

func (s bspan) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps the benchmark's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []bspan
}

func (t *tracer) add(s bspan) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []bspan {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]bspan(nil), t.spans...)
}

func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// middleware times every request through the program's handler, up to the
// handler's return (the response is fully written by then).
func (t *tracer) middleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cw := &countingWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(cw, r)
		t.add(bspan{Name: "http", Trace: r.Header.Get(serve.TraceHeader), Start: start, End: time.Now(),
			Attr: r.Method + " " + r.URL.Path, Bytes: cw.n})
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// replicaSource is what the benchmark wraps: a ReplicaSet's full surface.
type replicaSource interface {
	mediator.Wrapper
	mediator.StaleFetcher
	mediator.ReplicaReporter
	mediator.RetryCounter
	mediator.BreakerCounter
}

// timedSource is a timing Wrapper. Embedding the wrapped source keeps its
// StaleFetcher, ReplicaReporter and retry/breaker counters visible to the
// mediator, so wrapping does not change mediator behaviour.
type timedSource struct {
	replicaSource
	t *tracer
}

func (t *tracer) wrap(w replicaSource) *timedSource { return &timedSource{replicaSource: w, t: t} }

// FetchStale is the fetch the mediator makes on a StaleFetcher.
func (s *timedSource) FetchStale(ctx context.Context) (*xmlmodel.Document, bool, error) {
	start := time.Now()
	doc, stale, err := s.replicaSource.FetchStale(ctx)
	s.t.add(bspan{Name: "wrapper.fetch", Trace: obs.TraceID(ctx), Parent: obs.ContextSpan(ctx).SpanID(),
		Start: start, End: time.Now(), Attr: s.Name()})
	return doc, stale, err
}

// timedTransport times each HTTPSource round trip up to body EOF.
type timedTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (t *tracer) roundTripper(next http.RoundTripper) http.RoundTripper {
	return &timedTransport{next: next, t: t}
}

func (rt *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	sp := bspan{Name: "wire", Trace: obs.TraceID(req.Context()), Parent: obs.ContextSpan(req.Context()).SpanID(),
		Start: time.Now(), Attr: req.URL.Path}
	resp, err := rt.next.RoundTrip(req)
	if err != nil {
		sp.End = time.Now()
		rt.t.add(sp)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, sp: sp, t: rt.t}
	return resp, nil
}

// timedBody ends its span at the first EOF, or at Close when the reader
// stopped early.
type timedBody struct {
	io.ReadCloser
	sp   bspan
	t    *tracer
	once sync.Once
}

func (b *timedBody) finish() {
	b.once.Do(func() {
		b.sp.End = time.Now()
		b.t.add(b.sp)
	})
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.sp.Bytes += n
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// writeSpans dumps the benchmark's spans and the program's traces as JSON
// lines under dir, once the run has ended.
func writeSpans(dir, name string, spans []bspan, traces []*obs.TraceSnapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	for _, t := range traces {
		if err := enc.Encode(t); err != nil {
			f.Close()
			return "", err
		}
	}
	return path, f.Close()
}
