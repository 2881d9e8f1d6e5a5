package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
)

// sample is one request of an open-loop phase. Latency is measured from
// the request's scheduled send time, so a stall is charged to every
// request queued behind it; lateness is how late the sender actually sent.
type sample struct {
	op       int
	latency  time.Duration
	lateness time.Duration
	bytes    int
	key      string
	hash     uint64
	failed   bool // transport error or unexpected status
}

// loadGen sends plan ops to the front server.
type loadGen struct {
	client  *http.Client
	base    string
	plan    *plan
	rec     *recorder
	senders int
	next    int // plan offset of the next phase
	phase   int // request-id prefix, distinct per phase
}

func newLoadGen(base string, p *plan, rec *recorder) *loadGen {
	n := runtime.NumCPU()
	return &loadGen{
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: n, DisableCompression: true,
		}},
		base: base, plan: p, rec: rec, senders: n,
	}
}

func (d *loadGen) close() { d.client.CloseIdleConnections() }

// send issues one op and records its answer body for checking.
func (d *loadGen) send(ctx context.Context, i int, reqID string, buf *bytes.Buffer) sample {
	o := d.plan.Ops[i%len(d.plan.Ops)]
	s := sample{op: i % len(d.plan.Ops), key: o.Key}
	req, err := http.NewRequestWithContext(ctx, o.Method, d.base+o.Path, strings.NewReader(o.Body))
	if err != nil {
		s.failed = true
		return s
	}
	req.Header.Set(serve.TraceHeader, reqID)
	resp, err := d.client.Do(req)
	if err != nil {
		s.failed = true
		return s
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		s.failed = true
		return s
	}
	s.bytes = buf.Len()
	var ok bool
	s.hash, ok = d.rec.record(o.Key, buf.Bytes())
	s.failed = !ok
	return s
}

// phaseResult summarizes one open-loop phase.
type phaseResult struct {
	Samples  []sample
	CPU      time.Duration // process user+sys CPU
	Alloc    uint64        // heap bytes allocated
	Failures int
}

// openLoop offers total requests at rate requests/s: request k is due at
// start+k/rate whatever happened to earlier ones; at most d.senders are in
// flight, so a slow server makes later requests late, and that lateness is
// part of their latency.
func (d *loadGen) openLoop(ctx context.Context, rate float64, total int) phaseResult {
	res := phaseResult{Samples: make([]sample, total)}
	d.phase++
	base := d.next
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0, alloc0 := processCPU(), heapAllocated()
	start := time.Now()
	for w := 0; w < d.senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				k := int(next.Add(1) - 1)
				if k >= total {
					return
				}
				due := start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				s := d.send(ctx, base+k, fmt.Sprintf("p%d-%d", d.phase, k), &buf)
				s.lateness = sent.Sub(due)
				s.latency = time.Since(due)
				res.Samples[k] = s
			}
		}()
	}
	wg.Wait()
	res.CPU = processCPU() - cpu0
	res.Alloc = heapAllocated() - alloc0
	d.next = base + total
	for _, s := range res.Samples {
		if s.failed {
			res.Failures++
		}
	}
	return res
}

// cpuWindows is how many consecutive open-loop windows a fixed phase is
// split into. CPU and allocation per op are medians over the windows: on a
// shared host, a burst of contention from another tenant that falls in one
// window does not set the run's figure.
const cpuWindows = 5

// fixedResult is a fixed-rate phase: the windows' pooled samples and
// failures, and the medians over windows of CPU (ms) and heap allocation
// (KB) per op.
type fixedResult struct {
	phaseResult
	CPUPerOp, KBPerOp float64
}

// fixedPhase sends total requests at rate as cpuWindows open-loop windows
// back to back.
func (d *loadGen) fixedPhase(ctx context.Context, rate float64, total int) fixedResult {
	var res fixedResult
	var cpu, kb []float64
	for w := 0; w < cpuWindows; w++ {
		win := d.openLoop(ctx, rate, (w+1)*total/cpuWindows-w*total/cpuWindows)
		n := float64(len(win.Samples))
		cpu = append(cpu, float64(win.CPU)/1e6/n)
		kb = append(kb, float64(win.Alloc)/1024/n)
		res.Samples = append(res.Samples, win.Samples...)
		res.Failures += win.Failures
	}
	res.CPUPerOp, res.KBPerOp = median(cpu), median(kb)
	return res
}

// closedLoop sends n ops back to back from one goroutine (warm-up).
func (d *loadGen) closedLoop(ctx context.Context, n int) []sample {
	var buf bytes.Buffer
	out := make([]sample, n)
	d.phase++
	for k := range out {
		out[k] = d.send(ctx, d.next+k, fmt.Sprintf("w%d-%d", d.phase, k), &buf)
	}
	d.next += n
	return out
}

// quantile is the nearest-rank quantile of sorted raw values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func sortedMillis(samples []sample, f func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(f(s)) / 1e6
	}
	sort.Float64s(out)
	return out
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// liveHeapMB forces a GC and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// ladderProbe is one open-loop probe of the SLO ladder.
type ladderProbe struct {
	Samples []sample
	Rate    float64
	P99     float64
	Late    float64
	Fail    int
	Passed  bool
}

const (
	ladderStep  = 1.05
	ladderRungs = 48 // top rung = fixed rate × 1.05^32 ≈ 4.8×
	ladderBelow = 16 // rungs below the fixed rate, for a fixed rate that fails
	// ladderProbes sizes each probe: the five bisection steps over the 32
	// rungs above the fixed rate plus three repeats of failed probes.
	ladderProbes = 8
)

// ladder finds the highest rate on a geometric ladder (ratio ladderStep)
// whose p99 stays under limitMs with no failures and no growing backlog,
// by bisection over the rungs between lo (known to pass) and the top. A
// failed probe is repeated once before its rung counts as failed: one
// scheduling stall on a shared machine can fail a short probe.
func (d *loadGen) ladder(ctx context.Context, fixed, limitMs float64, fixedPassed bool, probeDur time.Duration) (float64, []ladderProbe) {
	rung := func(k int) float64 { return fixed * math.Pow(ladderStep, float64(k-ladderBelow)) }
	lo, hi := ladderBelow, ladderRungs
	if !fixedPassed {
		lo, hi = 0, ladderBelow
	}
	var probes []ladderProbe
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		pr := d.probe(ctx, rung(mid), limitMs, probeDur)
		probes = append(probes, pr)
		if !pr.Passed {
			pr = d.probe(ctx, rung(mid), limitMs, probeDur)
			probes = append(probes, pr)
		}
		if pr.Passed {
			lo = mid
		} else {
			hi = mid
		}
	}
	return rung(lo), probes
}

func (d *loadGen) probe(ctx context.Context, rate, limitMs float64, dur time.Duration) ladderProbe {
	res := d.openLoop(ctx, rate, int(math.Floor(rate*dur.Seconds())))
	lat := sortedMillis(res.Samples, func(s sample) time.Duration { return s.latency })
	tail := res.Samples[len(res.Samples)*3/4:]
	late := sortedMillis(tail, func(s sample) time.Duration { return s.lateness })
	pr := ladderProbe{Samples: res.Samples, Rate: rate, P99: quantile(lat, 0.99), Late: quantile(late, 0.99), Fail: res.Failures}
	// A backlog that is still there in the last quarter of the probe is
	// growing: the senders could not catch up with the offered rate.
	pr.Passed = pr.Fail == 0 && pr.P99 < limitMs && pr.Late < limitMs/4
	return pr
}

// minP99Samples is the fewest samples a fixed-rate phase takes, so at
// least ten lie beyond its nearest-rank p99.
const minP99Samples = 1000

// fixedCount is how many requests a fixed-rate phase sends: seconds' worth
// at rate, and at least minP99Samples.
func fixedCount(seconds, rate float64) int {
	return max(int(math.Floor(rate*seconds)), minP99Samples)
}
