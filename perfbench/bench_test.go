package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/automata"
	"repro/internal/dtd"
	"repro/internal/infer"
	"repro/internal/serve"
)

func TestSameSeedSameFixtureAndPlan(t *testing.T) {
	a, err := buildFixture(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildFixture(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildFixture(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(servedBytes(a), servedBytes(b)) {
		t.Error("seed 7 built two different fixtures")
	}
	if reflect.DeepEqual(servedBytes(a), servedBytes(c)) {
		t.Error("seeds 7 and 8 built the same fixture")
	}
	for _, w := range workloads {
		pa, err := buildPlan(w.Name, a, 7)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := buildPlan(w.Name, b, 7)
		if err != nil {
			t.Fatal(err)
		}
		pc, err := buildPlan(w.Name, c, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pa.Ops, pb.Ops) || !reflect.DeepEqual(pa.Expect, pb.Expect) {
			t.Errorf("%s: seed 7 built two different op plans", w.Name)
		}
		if reflect.DeepEqual(pa.Ops, pc.Ops) {
			t.Errorf("%s: seeds 7 and 8 built the same op plan", w.Name)
		}
	}
}

// servedBytes is everything the leaf replicas serve for a fixture.
func servedBytes(fx *fixture) []string {
	var out []string
	for _, s := range fx.Sources {
		out = append(out, s.DTDText, s.DocText)
	}
	return out
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			var out strings.Builder
			res, err := run(context.Background(), config{Workload: w, Seed: 3, Seconds: 1, Trace: traced}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", w.Name, traced, res.Correct, res.Failed, res.Attempted, out.String())
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.Name, traced, name)
				} else if m.Unit != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, declared %q", w.Name, traced, name, m.Unit, unit)
				}
				if !strings.Contains(out.String(), name) {
					t.Errorf("%s trace=%v: report does not print %s", w.Name, traced, name)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, declared %d", w.Name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// observed is what a client and an operator can see of a run: every
// response's status, headers and body, and the /metrics counters.
type observed struct {
	responses []string
	metrics   map[string]any
	global    [4]int64 // stream documents and bytes, automata and verdict cache lookups
}

// TestInterceptorsTransparent runs the same seed and op plan with and
// without the timing interceptors and requires identical responses and
// counters: wrapping must not change mediator behaviour.
func TestInterceptorsTransparent(t *testing.T) {
	for _, w := range []string{"read-hot", "refresh"} {
		plain := observe(t, w, nil)
		traced := observe(t, w, &tracer{})
		if !reflect.DeepEqual(plain.responses, traced.responses) {
			for i := range plain.responses {
				if i < len(traced.responses) && plain.responses[i] != traced.responses[i] {
					t.Errorf("%s: response %d differs:\n%s\nvs\n%s", w, i, plain.responses[i], traced.responses[i])
					break
				}
			}
		}
		if !reflect.DeepEqual(plain.metrics, traced.metrics) {
			a, _ := json.MarshalIndent(plain.metrics, "", " ")
			b, _ := json.MarshalIndent(traced.metrics, "", " ")
			t.Errorf("%s: /metrics differ:\n%s\nvs\n%s", w, a, b)
		}
		if plain.global != traced.global {
			t.Errorf("%s: process-wide counters differ: %v vs %v", w, plain.global, traced.global)
		}
	}
}

func observe(t *testing.T, workload string, tr *tracer) observed {
	t.Helper()
	ctx := context.Background()
	fx, err := buildFixture(5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(workload, fx, 5)
	if err != nil {
		t.Fatal(err)
	}
	leaves, urls, err := leafServers(fx)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, l := range leaves {
			l.close()
		}
	}()
	stream0 := dtd.StreamValidationStats()
	auto0, sat0 := automata.CacheStats(), infer.SatisfiabilityCacheStats()
	f, _, err := setupFleet(ctx, fx, urls, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer f.close()
	var h http.Handler = serve.New(f.M)
	if tr != nil {
		h = tr.middleware(h)
	}
	front, err := startServer(h)
	if err != nil {
		t.Fatal(err)
	}
	defer front.close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	var obs observed
	for i, o := range p.Ops[:240] {
		req, err := http.NewRequest(o.Method, front.URL+o.Path, strings.NewReader(o.Body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(serve.TraceHeader, fmt.Sprintf("t-%d", i))
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		resp.Header.Del("Date")
		obs.responses = append(obs.responses, fmt.Sprintf("%d %v %s", resp.StatusCode, resp.Header, body))
	}
	resp, err := client.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Replica names carry the leaf servers' ports, which differ per run.
	text := string(raw)
	for i, u := range urls {
		text = strings.ReplaceAll(text, u, fmt.Sprintf("leaf%d", i))
	}
	if err := json.Unmarshal([]byte(text), &obs.metrics); err != nil {
		t.Fatal(err)
	}
	// Timings, the time-refilled retry budget and the process-wide counters
	// are not per-run facts; the latter are compared as deltas below.
	for _, k := range []string{"stream_validation", "automata_cache", "prune_verdict_cache"} {
		delete(obs.metrics, k)
	}
	drop := func(group string, keys ...string) {
		m, _ := obs.metrics[group].(map[string]any)
		for _, v := range m {
			for _, k := range keys {
				delete(v.(map[string]any), k)
			}
		}
	}
	drop("views", "query_nanos", "materialize_nanos", "query_latency", "materialize_latency")
	drop("replicas", "budget_tokens")
	stream := dtd.StreamValidationStats()
	auto, sat := automata.CacheStats(), infer.SatisfiabilityCacheStats()
	// How a process-wide cache lookup resolves (hit, miss, joined flight)
	// depends on goroutine timing, so only the lookup totals are compared.
	obs.global = [4]int64{
		stream.Documents - stream0.Documents, stream.Bytes - stream0.Bytes,
		auto.Hits + auto.Misses + auto.Dedups - auto0.Hits - auto0.Misses - auto0.Dedups,
		sat.Hits + sat.Misses + sat.Dedups - sat0.Hits - sat0.Misses - sat0.Dedups,
	}
	return obs
}
