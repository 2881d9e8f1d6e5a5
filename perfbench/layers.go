package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/automata"
	"repro/internal/automata/cache"
	"repro/internal/dtd"
	"repro/internal/engine"
	"repro/internal/infer"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/regex"
	"repro/internal/serve"
	"repro/internal/xmas"
	"repro/internal/xmlmodel"
)

// counters is a snapshot of the program's public counters.
type counters struct {
	med  mediator.Stats
	auto cache.Stats
	sat  cache.Stats
}

func readCounters(m *mediator.Mediator) counters {
	return counters{med: m.Stats(), auto: automata.CacheStats(), sat: infer.SatisfiabilityCacheStats()}
}

// layer is one timed layer: calls, total time, allocations, bytes covered.
type layer struct {
	calls  int
	total  time.Duration
	allocs uint64
	bytes  int
}

func (l layer) meanUS() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.total) / 1e3 / float64(l.calls)
}

func (l layer) allocsPerCall() float64 {
	if l.calls == 0 {
		return 0
	}
	return float64(l.allocs) / float64(l.calls)
}

func (l layer) nsPerByte() float64 {
	if l.bytes == 0 {
		return 0
	}
	return float64(l.total) / float64(l.bytes)
}

// spanLayer aggregates recorded span durations.
func spanLayer(ds []time.Duration) layer {
	l := layer{calls: len(ds)}
	for _, d := range ds {
		l.total += d
	}
	return l
}

// replayBudget bounds the calls one layer's replay makes.
const replayBudget = 4000

// replay calls f on inputs 0..n-1 (at most replayBudget of them) and times
// the batch; f returns the bytes it covered.
func replay(n int, f func(i int) int) layer {
	if n == 0 {
		return layer{}
	}
	calls := n
	if calls > replayBudget {
		calls = replayBudget
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	l := layer{calls: calls}
	start := time.Now()
	for i := 0; i < calls; i++ {
		l.bytes += f(i)
	}
	l.total = time.Since(start)
	runtime.ReadMemStats(&after)
	l.allocs = after.Mallocs - before.Mallocs
	return l
}

// runTraced measures the untraced fixed-rate phase, then the same plan
// through a second fleet with the timing interceptors, and derives the
// per-layer metrics from the spans, counter deltas and replays.
func runTraced(ctx context.Context, b *bench, out io.Writer) (*result, error) {
	w := b.cfg.Workload
	n := fixedCount(b.cfg.Seconds*0.4, w.Rate)
	all := b.drv.closedLoop(ctx, warmUpOps)
	plain := b.drv.fixedPhase(ctx, w.Rate, n)

	tr := &tracer{}
	f, _, err := setupFleet(ctx, b.fx, b.urls, tr)
	if err != nil {
		return nil, err
	}
	defer f.close()
	otr := obs.NewTracer(n + 2*warmUpOps)
	front, err := startServer(tr.middleware(serve.New(f.M, serve.WithTracer(otr))))
	if err != nil {
		return nil, err
	}
	defer front.close()
	drv := newLoadGen(front.URL, b.plan, b.rec)
	defer drv.close()
	drv.next, drv.phase = b.drv.next, b.drv.phase
	all = append(all, drv.closedLoop(ctx, warmUpOps)...)
	tr.reset()
	before := readCounters(f.M)
	traced := drv.fixedPhase(ctx, w.Rate, n)
	after := readCounters(f.M)
	spans := tr.snapshot()
	// Warm-up request IDs start with w; every open-loop request this front
	// served belongs to the traced phase's windows.
	var traces []*obs.TraceSnapshot
	for _, t := range otr.Traces(0) {
		if strings.HasPrefix(t.TraceID, "p") {
			traces = append(traces, t)
		}
	}

	ls := computeLayers(b, f, traced.phaseResult, spans, traces, before, after)
	late := sortedMillis(plain.Samples, func(s sample) time.Duration { return s.lateness })
	ls.set("client.lateness_p99_ms", quantile(late, 0.99), "ms", len(late))
	lat := sortedMillis(plain.Samples, func(s sample) time.Duration { return s.latency })
	ls.set("client.latency_p50_ms", quantile(lat, 0.5), "ms", len(lat))
	ls.set("client.latency_p99_ms", quantile(lat, 0.99), "ms", len(lat))
	ls.set("trace.overhead_pct", (traced.CPUPerOp/plain.CPUPerOp-1)*100, "%", len(traced.Samples))

	all = append(append(all, plain.Samples...), traced.Samples...)
	v := b.verdict()
	failed, wrong := v.count(all)
	b.describe(out, traced.Samples)
	fmt.Fprintf(out, "traced run: %d untraced + %d traced requests at %.0f/s; cpu per op %.3f ms untraced, %.3f ms traced\n",
		len(plain.Samples), len(traced.Samples), w.Rate, plain.CPUPerOp, traced.CPUPerOp)
	if b.cfg.SpanDir != "" {
		path, err := writeSpans(b.cfg.SpanDir, fmt.Sprintf("%s-seed%d.jsonl", w.Name, b.cfg.Seed), spans, traces)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "spans: %d benchmark spans, %d program traces written to %s\n", len(spans), len(traces), path)
	}
	fmt.Fprintf(out, "whole run: failed %d + wrong %d of %d\n", failed, wrong, len(all))
	v.report(out)
	ls.print(out)
	return &result{Correct: v.passed(failed, wrong),
		Attempted: len(all), Failed: failed + wrong, Metrics: ls.metrics}, nil
}

// layerSet collects per-layer metrics with their sample counts.
type layerSet struct {
	metrics map[string]metric
	n       map[string]int
}

func (s *layerSet) set(name string, v float64, unit string, n int) {
	s.metrics[name] = metric{Value: v, Unit: unit}
	s.n[name] = n
}

func (s *layerSet) timing(prefix string, l layer) {
	s.set(prefix+"_us", l.meanUS(), "us", l.calls)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func (s *layerSet) print(out io.Writer) {
	names := make([]string, 0, len(s.metrics))
	for n := range s.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %14.4f %-6s n=%d\n", n, s.metrics[n].Value, s.metrics[n].Unit, s.n[n])
	}
}

// computeLayers derives every per-layer metric of the traced phase.
func computeLayers(b *bench, f *fleet, ph phaseResult, spans []bspan, traces []*obs.TraceSnapshot, before, after counters) *layerSet {
	ls := &layerSet{metrics: map[string]metric{}, n: map[string]int{}}
	ops := len(ph.Samples)
	var views, queries, infers []op
	for _, s := range ph.Samples {
		switch o := b.plan.Ops[s.op]; o.Kind {
		case opView:
			views = append(views, o)
		case opQuery:
			queries = append(queries, o)
		case opInfer:
			infers = append(infers, o)
		}
	}

	// Boundary spans recorded by the benchmark.
	var server, wire, fetches []time.Duration
	var respBytes int
	var fetched []string // source fetched by each HTTPSource data round trip
	for _, sp := range spans {
		switch sp.Name {
		case "http":
			server = append(server, sp.dur())
			respBytes += sp.Bytes
		case "wire":
			wire = append(wire, sp.dur())
			if name, ok := strings.CutPrefix(sp.Attr, "/views/"); ok && !strings.HasSuffix(name, "/dtd") {
				fetched = append(fetched, name)
			}
		case "wrapper.fetch":
			fetches = append(fetches, sp.dur())
		}
	}
	// The program's own spans: top-level ones (children of the request's
	// root span) are what the serve layer's self time excludes.
	var topLevel time.Duration
	prog := map[string][]time.Duration{}
	for _, t := range traces {
		for _, sp := range t.Spans {
			d := time.Duration(sp.DurationNanos)
			prog[sp.Name] = append(prog[sp.Name], d)
			if sp.ParentID == 1 {
				topLevel += d
			}
		}
	}
	serverL := spanLayer(server)
	ls.timing("serve.server", serverL)
	ls.set("serve.self_us", float64(serverL.total-topLevel)/1e3/float64(max(ops, 1)), "us", len(server))
	ls.set("serve.response_kb", float64(respBytes)/1024/float64(max(ops, 1)), "KB", len(server))

	// Counter deltas.
	dm := func(f func(mediator.Stats) int64) int64 { return f(after.med) - f(before.med) }
	hits := dm(func(s mediator.Stats) int64 { return s.CacheHits })
	dedups := dm(func(s mediator.Stats) int64 { return s.SingleflightDedups })
	lookups := hits + dedups + dm(func(s mediator.Stats) int64 { return s.CacheMisses })
	ls.set("mediator.matcache_hits", float64(hits), "count", 0)
	ls.set("mediator.matcache_lookups", float64(lookups), "count", 0)
	ls.set("mediator.matcache_hit_ratio", ratio(hits, lookups), "ratio", int(lookups))
	reused := dm(func(s mediator.Stats) int64 { return s.PartsReused })
	evaluated := reused + dm(func(s mediator.Stats) int64 { return s.PartsRecomputed })
	ls.set("mediator.parts_reused", float64(reused), "count", 0)
	ls.set("mediator.parts_evaluated", float64(evaluated), "count", 0)
	ls.set("mediator.part_reuse_ratio", ratio(reused, evaluated), "ratio", int(evaluated))
	ls.set("mediator.parts_pruned_per_query", ratio(dm(func(s mediator.Stats) int64 { return s.PartsPruned }), int64(len(queries))), "count", len(queries))
	ls.set("mediator.singleflight_dedups_per_op", ratio(dedups, int64(ops)), "count", ops)
	nf := int64(len(fetches))
	ls.set("httpsource.retries_per_fetch", ratio(dm(func(s mediator.Stats) int64 { return s.Retries }), nf), "count", len(fetches))
	ls.set("replica.hedges_per_fetch", ratio(dm(func(s mediator.Stats) int64 { return s.HedgedFetches }), nf), "count", len(fetches))
	satHits := after.sat.Hits - before.sat.Hits
	satLookups := satHits + after.sat.Misses - before.sat.Misses + after.sat.Dedups - before.sat.Dedups
	ls.set("infer.sat_cache_hits", float64(satHits), "count", 0)
	ls.set("infer.sat_cache_lookups", float64(satLookups), "count", 0)
	ls.set("infer.sat_cache_hit_ratio", ratio(satHits, satLookups), "ratio", int(satLookups))
	autoHits := after.auto.Hits - before.auto.Hits
	autoLookups := autoHits + after.auto.Misses - before.auto.Misses + after.auto.Dedups - before.auto.Dedups
	ls.set("automata.cache_hits", float64(autoHits), "count", 0)
	ls.set("automata.cache_lookups", float64(autoLookups), "count", 0)
	ls.set("automata.cache_hit_ratio", ratio(autoHits, autoLookups), "ratio", int(autoLookups))
	ls.set("automata.evictions_per_op", ratio(after.auto.Evictions-before.auto.Evictions, int64(ops)), "count", ops)

	// The program's existing spans.
	materialize := spanLayer(prog["materialize"])
	fetchL := spanLayer(prog["source.fetch"])
	ls.timing("mediator.materialize", materialize)
	ls.timing("mediator.source_fetch", fetchL)
	ls.timing("engine.part_eval", spanLayer(prog["part.eval"]))
	wireL := spanLayer(wire)
	ls.timing("httpsource.wire", wireL)

	// Replays of the layers without a boundary, on this phase's inputs;
	// each replay times only its layer's call.
	r := newReplayer(b, f)
	in := r.queryInputs(queries)
	var texts []string // XMAS texts parsed by the serve layer
	for _, o := range queries {
		texts = append(texts, o.Body)
	}
	for _, o := range infers {
		_, view, _ := strings.Cut(o.Body, "]>")
		texts = append(texts, view)
	}
	qparse := replay(len(texts), func(i int) int { _, _ = xmas.Parse(texts[i]); return 0 })
	ls.timing("xmas.parse", qparse)
	simplify := replay(len(in), func(i int) int { _, _, _ = infer.SimplifyQuery(in[i].q, f.View.DTD); return 0 })
	ls.timing("infer.simplify", simplify)
	var probes []probe
	for _, x := range in {
		probes = append(probes, x.probes...)
	}
	sat := replay(len(probes), func(i int) int {
		infer.SatisfiabilityCached(context.Background(), probes[i].q, probes[i].d)
		return 0
	})
	ls.timing("infer.sat", sat)
	eval := replay(len(in), func(i int) int { _, _ = engine.Eval(in[i].sq, in[i].doc); return 0 })
	ls.timing("engine.eval", eval)
	var answers []*xmlmodel.Element
	for range views {
		answers = append(answers, r.full.Root)
	}
	for _, x := range in {
		answers = append(answers, x.answer)
	}
	marshal := replay(len(answers), func(i int) int { return len(xmlmodel.MarshalElement(answers[i], 2)) })
	ls.timing("xmlmodel.marshal", marshal)
	ls.set("xmlmodel.marshal_allocs", marshal.allocsPerCall(), "count", marshal.calls)
	ls.set("xmlmodel.marshal_ns_per_byte", marshal.nsPerByte(), "ns/B", marshal.calls)
	dtdString := replay(len(views), func(int) int { return len(f.View.DTD.String()) })
	ls.timing("dtd.string", dtdString)

	// Fetch path: every HTTPSource data round trip of the phase, replayed
	// layer by layer on the bytes the leaf served.
	src := map[string]*source{}
	for _, s := range b.fx.Sources {
		src[s.Name] = s
	}
	vstream := replay(len(fetched), func(i int) int {
		s := src[fetched[i]]
		_ = s.DTD.ValidateStream(s.DocText)
		return len(s.DocText)
	})
	ls.timing("dtd.validate_stream", vstream)
	ls.set("dtd.validate_stream_ns_per_byte", vstream.nsPerByte(), "ns/B", vstream.calls)
	parsed := map[string]*xmlmodel.Document{}
	parse := replay(len(fetched), func(i int) int {
		s := src[fetched[i]]
		doc, _, _ := dtd.ParseDocument(s.DocText)
		parsed[s.Name] = doc
		return len(s.DocText)
	})
	ls.timing("xmlmodel.parse", parse)
	ls.set("xmlmodel.parse_allocs", parse.allocsPerCall(), "count", parse.calls)
	vtree := replay(len(fetched), func(i int) int {
		s := src[fetched[i]]
		_ = s.DTD.Validate(parsed[s.Name])
		return 0
	})
	ls.timing("dtd.validate_tree", vtree)
	ls.set("dtd.validate_tree_allocs", vtree.allocsPerCall(), "count", vtree.calls)
	fetchRest := 0.0
	if len(fetched) > 0 {
		perFetch := float64(wireL.total)/float64(len(fetched)) + (vstream.meanUS()+parse.meanUS()+vtree.meanUS())*1e3
		fetchRest = (float64(fetchL.total)/float64(max(fetchL.calls, 1)) - perFetch) / 1e3
	}
	ls.set("mediator.fetch_unaccounted_us", fetchRest, "us", fetchL.calls)

	// Definition path.
	pairs := r.pairs(infers)
	parseDTD := replay(len(pairs), func(i int) int {
		_, _ = dtd.Parse(pairs[i].dtdText)
		return len(pairs[i].dtdText)
	})
	ls.timing("dtd.parse_dtd", parseDTD)
	results := make([]*infer.Result, len(pairs))
	inferL := replay(len(pairs), func(i int) int {
		results[i], _ = infer.InferContext(context.Background(), pairs[i].q, pairs[i].DTD)
		return 0
	})
	ls.timing("infer.infer", inferL)
	merge := replay(len(pairs), func(i int) int {
		if results[i] != nil {
			_, _, _ = results[i].SDTD.Merge()
		}
		return 0
	})
	ls.timing("sdtd.merge", merge)
	ls.timing("automata.compile_cold", r.compileCold(pairs))

	// Server time no named layer accounts for, per op.
	accounted := float64(topLevel) + float64(qparse.meanUS()*1e3)*float64(len(queries)+len(infers)) +
		marshal.meanUS()*1e3*float64(len(views)+len(queries)) + dtdString.meanUS()*1e3*float64(len(views)) +
		parseDTD.meanUS()*1e3*float64(len(infers))
	ls.set("serve.unaccounted_us", (float64(serverL.total)-accounted)/1e3/float64(max(ops, 1)), "us", ops)
	return ls
}

// replayer prepares the inputs the layer replays run on.
type replayer struct {
	b    *bench
	f    *fleet
	full *xmlmodel.Document
	// partKids are each view part's result children over the fixture.
	partKids [][]*xmlmodel.Element
}

func newReplayer(b *bench, f *fleet) *replayer {
	r := &replayer{b: b, f: f}
	r.full, _ = f.M.Materialize(context.Background(), viewName)
	for i, p := range f.View.Parts {
		var kids []*xmlmodel.Element
		if res, err := engine.Eval(p.Query, b.fx.Sources[i].Doc); err == nil {
			kids = res.Root.Children
		}
		r.partKids = append(r.partKids, kids)
	}
	return r
}

// queryInput is one query as each layer of the query path sees it.
type queryInput struct {
	q, sq  *xmas.Query        // parsed, simplified
	probes []probe            // the part-pruning satisfiability calls
	doc    *xmlmodel.Document // the (pruned) materialization it runs on
	answer *xmlmodel.Element  // the answer that is marshalled
}

type probe struct {
	q *xmas.Query
	d *dtd.DTD
}

// queryInputs prepares one input per query op (shared per distinct query).
func (r *replayer) queryInputs(queries []op) []*queryInput {
	memo := map[string]*queryInput{}
	var out []*queryInput
	for _, o := range queries {
		x, ok := memo[o.Body]
		if !ok {
			x = r.prepare(o.Body)
			memo[o.Body] = x
		}
		if x != nil {
			out = append(out, x)
		}
	}
	return out
}

func (r *replayer) prepare(body string) *queryInput {
	q, err := xmas.Parse(body)
	if err != nil {
		return nil
	}
	x := &queryInput{q: q, sq: q}
	if sq, _, err := infer.SimplifyQuery(q, r.f.View.DTD); err == nil {
		x.sq = sq
	}
	root := &xmlmodel.Element{Name: viewName}
	pqs := rootProbes(x.sq)
	for i, p := range r.f.View.Parts {
		refuted := p.DTD != nil && len(pqs) > 0
		for _, pq := range pqs {
			if p.DTD != nil {
				x.probes = append(x.probes, probe{q: pq, d: p.DTD})
				if v, _ := infer.SatisfiabilityCached(context.Background(), pq, p.DTD); v != infer.VerdictUnsatisfiable {
					refuted = false
				}
			}
		}
		if !refuted {
			root.Children = append(root.Children, r.partKids[i]...)
		}
	}
	x.doc = &xmlmodel.Document{DocType: viewName, Root: root}
	if res, err := engine.Eval(x.sq, x.doc); err == nil {
		x.answer = res.Root
	} else {
		return nil
	}
	return x
}

// rootProbes mirrors the mediator's pruning probes: the query root with one
// of its children at a time, bindings stripped, as a plain condition.
func rootProbes(q *xmas.Query) []*xmas.Query {
	if q.Root == nil || q.Root.Recursive || len(q.Root.Children) == 0 || q.Root.Var == q.PickVar {
		return nil
	}
	var out []*xmas.Query
	for _, c := range q.Root.Children {
		child := c.Clone()
		child.WalkConds(func(k *xmas.Cond) { k.Var, k.IDVar = "", "" })
		child.Qualifier = false
		root := &xmas.Cond{Names: append([]string(nil), q.Root.Names...), HasText: q.Root.HasText,
			Text: q.Root.Text, Var: "P", Children: []*xmas.Cond{child}}
		out = append(out, &xmas.Query{Name: q.Name, PickVar: "P", Root: root})
	}
	return out
}

// pairInput is one /infer request as the definition path sees it.
type pairInput struct {
	inferPair
	dtdText string      // the DOCTYPE part of the body
	q       *xmas.Query // the parsed view
}

func (r *replayer) pairs(infers []op) []pairInput {
	byBody := map[string]pairInput{}
	for _, p := range r.b.plan.Pool {
		text, _, _ := strings.Cut(p.Body, "]>")
		byBody[p.Body] = pairInput{inferPair: p, dtdText: text + "]>", q: xmas.MustParse(p.View)}
	}
	out := make([]pairInput, 0, len(infers))
	for _, o := range infers {
		out = append(out, byBody[o.Body])
	}
	return out
}

// compileCold compiles every content model of the phase's DTDs (the /infer
// pool's, or the fleet's sources and view) on a fresh compiler per DTD.
func (r *replayer) compileCold(pairs []pairInput) layer {
	seen := map[*dtd.DTD]bool{}
	var dtds []*dtd.DTD
	for _, p := range pairs {
		if !seen[p.DTD] {
			seen[p.DTD] = true
			dtds = append(dtds, p.DTD)
		}
	}
	if len(pairs) == 0 {
		for _, s := range r.b.fx.Sources {
			dtds = append(dtds, s.DTD)
		}
		dtds = append(dtds, r.f.View.DTD)
	}
	var models []regex.Expr
	var owner []int
	for i, d := range dtds {
		for _, n := range d.Names() {
			if t := d.Types[n]; !t.PCDATA && t.Model != nil {
				models = append(models, t.Model)
				owner = append(owner, i)
			}
		}
	}
	var cp *automata.Compiler
	return replay(len(models), func(i int) int {
		if i == 0 || owner[i] != owner[i-1] {
			cp = automata.NewCompiler(automata.DefaultCacheCapacity)
		}
		cp.DFA(models[i])
		return 0
	})
}
