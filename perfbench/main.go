// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It stands up one fixture — a union view over an XMark-family
// fleet whose sources are served over loopback HTTP, each registered as a
// ReplicaSet of two HTTPSource replicas — and drives one named traffic mix
// through the real serve.Handler, open loop, checking every answer.
//
//	perfbench --workload read-hot|refresh|define --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the traced variant and prints the per-layer metrics. The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// See README.md in this directory.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/serve"
)

// setupRepeats is how many times a run stands the fleet up; setup_s is the
// median.
const setupRepeats = 41

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	Workload workload
	Seed     int64
	Seconds  float64
	Trace    bool
	// SpanDir receives the traced run's spans; empty skips writing them.
	SpanDir string
}

func main() {
	var (
		wname   = flag.String("workload", "", "workload: read-hot, refresh or define")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 for the traced per-layer run")
		spanDir = flag.String("span-dir", "", "directory the traced run writes its spans to; empty skips them")
	)
	flag.Parse()
	w, ok := findWorkload(*wname)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *wname, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{Workload: w, Seed: *seed, Seconds: *seconds, Trace: *trace == 1, SpanDir: *spanDir}
	res, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// bench is one run's live state: fixture, leaf replicas, serving fleet,
// front server and load generator.
type bench struct {
	cfg    config
	fx     *fixture
	plan   *plan
	rec    *recorder
	leaves []*server
	urls   []string
	fleet  *fleet
	front  *server
	drv    *loadGen
	setup  []float64 // seconds, one per repeat
}

func (b *bench) close() {
	if b.drv != nil {
		b.drv.close()
	}
	if b.front != nil {
		b.front.close()
	}
	if b.fleet != nil {
		b.fleet.close()
	}
	for _, s := range b.leaves {
		s.close()
	}
}

// start builds the fixture and plan, stands the fleet up setupRepeats
// times (keeping the last) and starts the front server.
func start(ctx context.Context, cfg config) (*bench, error) {
	b := &bench{cfg: cfg, rec: newRecorder()}
	var err error
	if b.fx, err = buildFixture(cfg.Seed); err != nil {
		return nil, err
	}
	if b.plan, err = buildPlan(cfg.Workload.Name, b.fx, cfg.Seed); err != nil {
		return nil, err
	}
	if b.leaves, b.urls, err = leafServers(b.fx); err != nil {
		return nil, err
	}
	for i := 0; i < setupRepeats; i++ {
		f, d, err := setupFleet(ctx, b.fx, b.urls, nil)
		if err != nil {
			b.close()
			return nil, err
		}
		if b.fleet != nil {
			b.fleet.close()
		}
		b.fleet = f
		b.setup = append(b.setup, d.Seconds())
	}
	if b.front, err = startServer(serve.New(b.fleet.M)); err != nil {
		b.close()
		return nil, err
	}
	b.drv = newLoadGen(b.front.URL, b.plan, b.rec)
	return b, nil
}

// warmUpOps is the closed-loop warm-up before any timed phase: enough to
// touch every distinct op of a plan's working set.
const warmUpOps = 400

func run(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	b, err := start(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer b.close()
	if cfg.Trace {
		return runTraced(ctx, b, out)
	}
	return runEndToEnd(ctx, b, out)
}

func runEndToEnd(ctx context.Context, b *bench, out io.Writer) (*result, error) {
	w := b.cfg.Workload
	all := b.drv.closedLoop(ctx, warmUpOps)
	fixed := b.drv.fixedPhase(ctx, w.Rate, fixedCount(b.cfg.Seconds*0.6, w.Rate))
	lat := sortedMillis(fixed.Samples, func(s sample) time.Duration { return s.latency })
	late := sortedMillis(fixed.Samples, func(s sample) time.Duration { return s.lateness })
	p99 := quantile(lat, 0.99)
	// Live heap right after the fixed phase: the caches the workload keeps
	// resident, next to the fixed-size state of the benchmark itself.
	heap := liveHeapMB()
	fixedPassed := fixed.Failures == 0 && p99 < w.Limit
	probeDur := time.Duration(b.cfg.Seconds * 0.4 / ladderProbes * float64(time.Second))
	slo, probes := b.drv.ladder(ctx, w.Rate, w.Limit, fixedPassed, probeDur)

	all = append(all, fixed.Samples...)
	for _, pr := range probes {
		all = append(all, pr.Samples...)
	}
	v := b.verdict()
	failed, wrong := v.count(all)
	fixedFailed, fixedWrong := v.count(fixed.Samples)
	n := float64(len(fixed.Samples))
	errRate := float64(fixedFailed+fixedWrong) / n
	// The metrics BENCHMARK.json bounds. ok_ratio is 1 - error_rate: a
	// bound is a share of the parent's value, which error_rate's healthy
	// value of 0 does not have.
	m := map[string]metric{
		"cpu_ms_per_op":   {fixed.CPUPerOp, "ms"},
		"alloc_kb_per_op": {fixed.KBPerOp, "KB"},
		"live_heap_mb":    {heap, "MB"},
		"ok_ratio":        {1 - errRate, "ratio"},
		"setup_s":         {median(b.setup), "s"},
	}
	// Latency and throughput are printed but not bounded: on a shared
	// two-vCPU host, CPU steal moves them between runs by more than the
	// largest bound a metric may have (see README.md).
	unbounded := map[string]metric{
		"p50_ms":     {quantile(lat, 0.50), "ms"},
		"p99_ms":     {p99, "ms"},
		"slo_rps":    {slo, "1/s"},
		"error_rate": {errRate, "ratio"},
	}
	b.describe(out, fixed.Samples)
	fmt.Fprintf(out, "fixed rate %.0f/s for %.1fs: %d samples, %d beyond p99; lateness p99 %.3f ms, max %.3f ms\n",
		w.Rate, float64(len(lat))/w.Rate, len(lat), countAbove(lat, p99), quantile(late, 0.99), quantile(late, 1))
	for _, pr := range probes {
		fmt.Fprintf(out, "slo ladder: %.1f/s for %.1fs: %d samples, p99 %.2f ms, last-quarter lateness p99 %.2f ms, failed %d, pass %v\n",
			pr.Rate, probeDur.Seconds(), len(pr.Samples), pr.P99, pr.Late, pr.Fail, pr.Passed)
	}
	fmt.Fprintf(out, "error_rate %.6f at the fixed rate (failed %d + wrong %d of %d); whole run: failed %d + wrong %d of %d\n",
		errRate, fixedFailed, fixedWrong, len(fixed.Samples), failed, wrong, len(all))
	v.report(out)
	printMetrics(out, unbounded)
	printMetrics(out, m)
	return &result{Correct: v.passed(failed, wrong),
		Attempted: len(all), Failed: failed + wrong, Metrics: m}, nil
}

// verdict is the after-timing check of every recorded answer.
type verdict struct {
	good     map[string]map[uint64]bool
	problems []string
}

func (b *bench) verdict() verdict {
	good, problems := (&checker{plan: b.plan, fx: b.fx}).verdicts(b.rec)
	return verdict{good: good, problems: problems}
}

// count splits samples into failed requests (transport error or bad
// status) and wrong answers (a body that did not pass the check).
func (v verdict) count(samples []sample) (failed, wrong int) {
	for _, s := range samples {
		switch {
		case s.failed:
			failed++
		case !v.good[s.key][s.hash]:
			wrong++
		}
	}
	return failed, wrong
}

// passed is the run's correctness verdict: every request of the run, ladder
// probes included, answered with status 200 and a checked body. The
// client has no timeout, so a request fails only on a real error.
func (v verdict) passed(failed, wrong int) bool {
	return failed == 0 && wrong == 0 && len(v.problems) == 0
}

func (v verdict) report(out io.Writer) {
	for _, p := range v.problems {
		fmt.Fprintln(out, "WRONG:", p)
	}
}

// describe prints the fixture size, the response size per op and the
// set-up samples.
func (b *bench) describe(out io.Writer, samples []sample) {
	el, by := b.fx.sourceBytes()
	resp := 0
	for _, s := range samples {
		resp += s.bytes
	}
	fmt.Fprintf(out, "workload %s seed %d: %d sources x 2 replicas, %.0f elements and %.0f bytes per source; %.0f response bytes per op\n",
		b.cfg.Workload.Name, b.cfg.Seed, len(b.fx.Sources), el, by, float64(resp)/float64(max(len(samples), 1)))
	if b.plan.Pool != nil {
		seen := map[string]bool{}
		for _, s := range samples {
			seen[s.key] = true
		}
		fmt.Fprintf(out, "infer pool: %d pairs; %d distinct pairs in %d ops, repeat share %.3f\n",
			len(b.plan.Pool), len(seen), len(samples), 1-float64(len(seen))/float64(max(len(samples), 1)))
	}
	fmt.Fprintf(out, "setup_s: median of %d set-ups %v\n", len(b.setup), b.setup)
}

func printMetrics(out io.Writer, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-36s %14.6f %s\n", n, m[n].Value, m[n].Unit)
	}
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func countAbove(sorted []float64, x float64) int {
	i := sort.SearchFloat64s(sorted, x)
	for i < len(sorted) && sorted[i] <= x {
		i++
	}
	return len(sorted) - i
}
