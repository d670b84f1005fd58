package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// options selects one workload run.
type options struct {
	workload string
	seed     uint64
	// seconds is how long the timed part measures. Warm-up windows, burst
	// sizes and probe budgets are fixed shares of it, so a short run is the
	// long one in miniature.
	seconds float64
	// trace records spans and reports the per-layer ledger in place of the
	// end-to-end metrics.
	trace bool
	// small runs every spec and corpus at scale 1. With a short measuring
	// time it is the pass `go test` makes: the same path as a real run, too
	// little work to measure anything.
	small bool
	// dir is where artifacts are written; the caller creates and removes it.
	dir string
	// traceOut, when set, receives the span file of a traced run.
	traceOut string
}

// scale returns the scale a spec asks for, or 1 in a small run.
func (o options) scale(n int) int {
	if o.small {
		return 1
	}
	return n
}

// setUps is how many times a run sets its workload up from nothing;
// setup_s is the median.
const setUps = 3

// minReps is the fewest timed repetitions of a closed-loop workload, even
// when one of them outlasts the measuring time.
const minReps = 3

// repResult is what one timed repetition (closed loop) or window (open
// loop) measured. A run's timing numbers are ratios of sums over its
// repetitions, not medians of per-repetition ratios: this machine's speed
// moves between levels every few hundred milliseconds, and the middle of a
// two-humped sample jumps where its mean moves smoothly.
type repResult struct {
	// wall is the timed call.
	wall time.Duration
	// attempted and failed count operations, in the workload's own unit.
	attempted, failed int64
	// opsDone operations completed in opsTime give run.ops_per_s.
	opsDone float64
	opsTime time.Duration
	// cpu spent over cpuOps operations gives run.cpu_us_per_op.
	cpu    time.Duration
	cpuOps float64
	// latencies are every sample of the repetition, in nanoseconds, unsorted.
	latencies []int64
	// achieved is operations succeeded over attempted, or for an open loop
	// achieved over offered rate.
	achieved float64
	// facts are the outputs the oracle checks: counts and digests that the
	// seed alone determines.
	facts map[string]string
}

// closedResult fills in what every closed-loop repetition has in common:
// all of its operations count towards throughput and CPU, over the whole
// timed call.
func closedResult(wall, cpu time.Duration, attempted, failed int64, latencies []int64) repResult {
	done := float64(attempted - failed)
	return repResult{
		wall: wall, attempted: attempted, failed: failed,
		opsDone: done, opsTime: wall,
		cpu: cpu, cpuOps: done,
		latencies: latencies,
		achieved:  done / float64(attempted),
	}
}

// runner is one workload behind the generic driver.
type runner interface {
	// setUp builds the workload from nothing: registry, spec, servers. It may
	// be called several times; each call discards what the previous one built.
	setUp() error
	// warmUp runs one untimed repetition, or for an open loop a short window.
	// Set-up time is setUp plus warmUp.
	warmUp(ctx context.Context) error
	// rep runs timed repetition i (negative for the untraced repetitions of
	// a traced run). An open-loop workload offers load for h.window.
	rep(ctx context.Context, i int) (repResult, error)
	// probe adds the direct timed loops over the layers this workload
	// reaches to the ledger. Traced runs only.
	probe(ctx context.Context) error
	// close releases what setUp built.
	close()
}

// harness carries what every runner shares.
type harness struct {
	opts   options
	rec    *Recorder // nil when untraced
	ledger ledger
	// problems collects failed correctness checks; any entry marks the run
	// incorrect.
	problems []string
	// window is how long an open-loop repetition offers load.
	window time.Duration
}

func (h *harness) problem(format string, args ...any) {
	h.problems = append(h.problems, fmt.Sprintf(format, args...))
}

// ledger collects per-layer samples; a metric's value is the median of the
// samples the repetitions and probes added under its name.
type ledger map[string][]float64

func (l ledger) add(name string, v float64) { l[name] = append(l[name], v) }

// result is the outcome of one workload run.
type result struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Traced    bool   `json:"traced,omitempty"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// EndToEnd holds every end-to-end metric. The driver reads them from an
	// untraced run; a traced run's are measured with the recorder on.
	EndToEnd map[string]float64 `json:"end_to_end"`
	// Unbounded holds what an untraced run measures of what a user reads off
	// a run — the run.* timings over the timed repetitions and the peak
	// resident set — kept out of the bounded set because no two runs on the
	// machine this was built on agree on them (README, "Noise"). A traced
	// run reports them in PerLayer, the timings from its untraced part.
	Unbounded map[string]float64 `json:"unbounded,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Detail    detail             `json:"detail"`
}

// detail is what the contract's four keys have no room for: the spread of
// the repetitions behind each number, the oracle's facts and complaints.
type detail struct {
	Reps       int               `json:"reps"`
	SetUps     []float64         `json:"setups_s"`
	RepWallS   []float64         `json:"rep_wall_s"`
	LatencyN   int               `json:"latency_samples"`
	Facts      map[string]string `json:"facts,omitempty"`
	Problems   []string          `json:"problems,omitempty"`
	AddUpWorst float64           `json:"addup_worst_pct,omitempty"`
}

// runWorkload runs one workload as the contract describes: set up, measure
// for opts.seconds, check, report.
func runWorkload(ctx context.Context, opts options) (*result, error) {
	def, ok := runners[opts.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", opts.workload)
	}
	h := &harness{opts: opts, ledger: ledger{}}
	if opts.trace {
		h.rec = NewRecorder()
	}
	r, err := def.new(ctx, h)
	if err != nil {
		return nil, err
	}
	defer r.close()

	res := &result{Workload: opts.workload, Seed: opts.seed, Traced: opts.trace}
	measure := time.Duration(opts.seconds * float64(time.Second))
	h.window = measure
	for i := 0; i < setUps; i++ {
		t0 := time.Now()
		if err := r.setUp(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", opts.workload, err)
		}
		if err := r.warmUp(ctx); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", opts.workload, err)
		}
		res.Detail.SetUps = append(res.Detail.SetUps, time.Since(t0).Seconds())
	}

	// repeat runs repetitions first, first+step, ... for the budget: one
	// window of that length for an open loop, at least so many repetitions
	// for a closed one.
	repeat := func(budget time.Duration, least, first, step int) ([]repResult, error) {
		var reps []repResult
		h.window = budget
		deadline := time.Now().Add(budget)
		for {
			i := first + step*len(reps)
			rr, err := r.rep(ctx, i)
			if err != nil {
				return nil, fmt.Errorf("%s: repetition %d: %w", opts.workload, i, err)
			}
			reps = append(reps, rr)
			if def.openLoop || (len(reps) >= least && !time.Now().Before(deadline)) {
				return reps, nil
			}
		}
	}

	// A traced run first measures a quarter as long with the recorder off:
	// the run.* metrics come from there, and the cost of tracing is a number
	// of this run and not a comparison across runs.
	var untraced []repResult
	if opts.trace {
		rec := h.rec
		h.rec = nil
		if untraced, err = repeat(measure/4, 1, -1, -1); err != nil {
			return nil, err
		}
		h.rec = rec
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0, _, err := processUsage()
	if err != nil {
		return nil, err
	}
	reps, err := repeat(measure, minReps, 0, 1)
	if err != nil {
		return nil, err
	}
	cpu1, peakRSS, err := processUsage()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&mem1)

	// Every repetition of one seed must produce the same outputs.
	for i, rr := range reps[1:] {
		for k, want := range reps[0].facts {
			if got := rr.facts[k]; got != want {
				h.problem("repetition %d: %s = %s, repetition 0 had %s", i+1, k, got, want)
			}
		}
	}
	checkExpected(h, reps[0].facts)

	for _, rr := range reps {
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		res.Detail.RepWallS = append(res.Detail.RepWallS, rr.wall.Seconds())
	}
	if res.Failed > 0 {
		h.problem("%d of %d operations failed", res.Failed, res.Attempted)
	}
	res.Detail.Reps = len(reps)
	res.Detail.Facts = reps[0].facts
	res.EndToEnd = map[string]float64{
		"setup_s":         median(res.Detail.SetUps),
		"achieved_ratio":  achievedOf(reps),
		"alloc_kb_per_op": float64(mem1.TotalAlloc-mem0.TotalAlloc) / 1e3 / float64(res.Attempted),
		"allocs_per_op":   float64(mem1.Mallocs-mem0.Mallocs) / float64(res.Attempted),
	}

	if opts.trace {
		for name, v := range timingOf(untraced, nil) {
			h.ledger.add(name, v)
		}
		if err := r.probe(ctx); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", opts.workload, err)
		}
		h.ledger.add("process.cpu_s", (cpu1 - cpu0).Seconds())
		h.ledger.add("process.peak_rss_mb", peakRSS)
		h.ledger.add("process.alloc_mb", float64(mem1.TotalAlloc-mem0.TotalAlloc)/1e6)
		h.ledger.add("process.mallocs_m", float64(mem1.Mallocs-mem0.Mallocs)/1e6)
		h.ledger.add("process.gc_pause_ms", float64(mem1.PauseTotalNs-mem0.PauseTotalNs)/1e6)
		h.ledger.add("process.gc_cycles", float64(mem1.NumGC-mem0.NumGC))
		h.ledger.add("trace.overhead_pct", 100*(medianCost(def, reps)/medianCost(def, untraced)-1))
		res.Detail.AddUpWorst = h.checkSpans()
		if res.PerLayer, err = h.perLayerOf(); err != nil {
			return nil, err
		}
		if opts.traceOut != "" {
			if err := writeTraceFile(opts.traceOut, h.rec.Spans()); err != nil {
				return nil, err
			}
		}
	} else {
		res.Unbounded = timingOf(reps, &res.Detail.LatencyN)
		res.Unbounded["process.peak_rss_mb"] = peakRSS
	}

	for name, v := range res.EndToEnd {
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			h.problem("end-to-end metric %s = %v, want a positive finite number", name, v)
		}
	}
	for name, v := range res.PerLayer {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			h.problem("per-layer metric %s = %v, want a finite number", name, v)
		}
	}
	res.Detail.Problems = h.problems
	res.Correct = len(h.problems) == 0
	return res, nil
}

// achievedOf is the mean of the repetitions' achieved ratios.
func achievedOf(reps []repResult) float64 {
	var sum float64
	for _, rr := range reps {
		sum += rr.achieved
	}
	return sum / float64(len(reps))
}

// timingOf sums repetitions into the run.* metrics: throughput, latency
// quantiles over every sample, CPU per operation. samples, when not nil,
// receives the number of latency samples behind the quantiles.
func timingOf(reps []repResult, samples *int) map[string]float64 {
	var sum repResult
	for _, rr := range reps {
		sum.opsDone += rr.opsDone
		sum.opsTime += rr.opsTime
		sum.cpu += rr.cpu
		sum.cpuOps += rr.cpuOps
		sum.latencies = append(sum.latencies, rr.latencies...)
	}
	sort.Slice(sum.latencies, func(a, b int) bool { return sum.latencies[a] < sum.latencies[b] })
	if samples != nil {
		*samples = len(sum.latencies)
	}
	return map[string]float64{
		"run.ops_per_s":      sum.opsDone / sum.opsTime.Seconds(),
		"run.latency_p50_us": quantileNs(sum.latencies, 0.50),
		"run.latency_p95_us": quantileNs(sum.latencies, 0.95),
		"run.cpu_us_per_op":  float64(sum.cpu) / 1e3 / sum.cpuOps,
	}
}

// medianCost is the median over the repetitions of what tracing is charged
// against.
func medianCost(def workloadDef, reps []repResult) float64 {
	costs := make([]float64, len(reps))
	for i, rr := range reps {
		costs[i] = def.cost(rr)
	}
	return median(costs)
}

// perLayerOf reduces the ledger to one value per declared metric: the
// median of its samples, 0 for a layer the workload never reached.
func (h *harness) perLayerOf() (map[string]float64, error) {
	out := make(map[string]float64, len(bench.PerLayer))
	for _, m := range bench.PerLayer {
		out[m.Name] = median(h.ledger[m.Name])
	}
	for name := range h.ledger {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("%s: per-layer metric %q is not declared in BENCHMARK.json", h.opts.workload, name)
		}
	}
	return out, nil
}

// checkSpans holds every repetition's span tree to the add-up rule and
// returns the worst discrepancy as a percentage of its root.
func (h *harness) checkSpans() float64 {
	tree := NewTree(h.rec.Spans())
	var worst float64
	for _, root := range tree.Roots() {
		if err := tree.CheckAddUp(root, 0.02); err != nil {
			h.problem("%v", err)
		}
		selfSum, overlap := tree.AddUp(root)
		if d := root.Dur(); d > 0 {
			worst = max(worst, 100*math.Abs(float64(selfSum-overlap-d))/float64(d))
		}
	}
	return worst
}

// median returns the middle of vs (the mean of the middle two for an even
// count), and 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantileNs returns the q-quantile of sorted nanosecond samples by nearest
// rank, in microseconds.
func quantileNs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}
