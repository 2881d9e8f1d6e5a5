package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/automata"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/xmas"
)

// server is a loopback HTTP server owned by the benchmark.
type server struct {
	srv  *http.Server
	done chan struct{}
	URL  string
}

func startServer(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, done: make(chan struct{}), URL: "http://" + ln.Addr().String()}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

// close stops the server and waits for its serve loop to exit.
func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// fleet is a mediator standing up the union view over the fixture's
// sources, each a ReplicaSet of two HTTPSource replicas served by the
// benchmark's leaf handlers.
type fleet struct {
	M         *mediator.Mediator
	View      *mediator.View
	transport *http.Transport
}

func (f *fleet) close() { f.transport.CloseIdleConnections() }

// setupFleet builds a fleet from an empty mediator and materializes the
// view once: the set-up a serving process pays before it is ready. The
// process-wide automata and verdict caches are purged first, so each set-up
// starts as cold as a fresh process. A non-nil tracer installs the timing
// interceptors (RoundTripper on the HTTPSource clients, Wrapper around each
// registered source).
func setupFleet(ctx context.Context, fx *fixture, leaves []string, tr *tracer) (*fleet, time.Duration, error) {
	automata.PurgeCache()
	infer.PurgeSatisfiabilityCache()
	start := time.Now()
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * len(fx.Sources), DisableCompression: true}
	var rt http.RoundTripper = transport
	if tr != nil {
		rt = tr.roundTripper(transport)
	}
	client := &http.Client{Transport: rt, Timeout: mediator.DefaultHTTPTimeout}
	f := &fleet{M: mediator.New("perfbench"), transport: transport}
	var parts []mediator.ViewPart
	for _, s := range fx.Sources {
		var replicas []mediator.Wrapper
		for _, base := range leaves {
			hs, err := mediator.NewHTTPSource(client, base, s.Name)
			if err != nil {
				f.close()
				return nil, 0, fmt.Errorf("setup: %w", err)
			}
			replicas = append(replicas, hs)
		}
		rs, err := mediator.NewReplicaSet(s.Name, replicas, mediator.ReplicaSetOptions{})
		if err != nil {
			f.close()
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		var w mediator.Wrapper = rs
		if tr != nil {
			w = tr.wrap(rs)
		}
		if err := f.M.AddSource(w); err != nil {
			f.close()
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		q, err := xmas.Parse(fmt.Sprintf(`SELECT X WHERE <%s> X:<entry/> </%s>`, s.Name, s.Name))
		if err != nil {
			f.close()
			return nil, 0, err
		}
		parts = append(parts, mediator.ViewPart{Source: s.Name, Query: q})
	}
	v, err := f.M.DefineUnionView(viewName, parts)
	if err != nil {
		f.close()
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	f.View = v
	if _, err := f.M.Materialize(ctx, viewName); err != nil {
		f.close()
		return nil, 0, fmt.Errorf("setup: first materialization: %w", err)
	}
	return f, time.Since(start), nil
}

// leafServers starts the two replicas every source is served by.
func leafServers(fx *fixture) ([]*server, []string, error) {
	var srvs []*server
	var urls []string
	for i := 0; i < 2; i++ {
		s, err := startServer(newLeafHandler(fx))
		if err != nil {
			for _, o := range srvs {
				o.close()
			}
			return nil, nil, fmt.Errorf("leaf server: %w", err)
		}
		srvs = append(srvs, s)
		urls = append(urls, s.URL)
	}
	return srvs, urls, nil
}
