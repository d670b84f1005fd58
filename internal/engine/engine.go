// Package engine is bdbench's concurrent execution layer — the middle box
// of the paper's Figure 2 architecture between test generation and
// analysis. It schedules a suite's workloads onto a bounded worker pool
// with per-workload warmup and repetition control, per-run context
// deadlines, panic isolation and streaming progress events.
//
// Tasks run in one of two modes. Closed-loop (the default) measures how
// fast a workload can go: Warmup unmeasured runs, then Reps measured
// repetitions back to back, median reported. Open-loop (Task.Load set)
// measures how the workload behaves under a controlled offered rate: the
// loadgen package schedules operation start times up front from an arrival
// process, each operation is one workload execution, and latency is
// recorded from the intended start so queueing delay is never hidden by
// coordinated omission.
//
// Scheduling never changes what workloads compute: every workload derives
// its input and behaviour from Params alone, so the same seed yields
// identical per-workload outputs — counters, operation counts, verification
// outcomes — whether the pool has one worker or many, and the returned
// slice is always in task order. Wall-clock measurements (elapsed,
// throughput, latencies) naturally vary with contention.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Config controls one engine run.
type Config struct {
	// Workers bounds how many workloads execute concurrently. Zero or
	// negative means one worker per available CPU.
	Workers int
	// Reps is the number of measured repetitions per workload (default 1).
	// The representative result reported per workload is the
	// median-throughput repetition; Best is the fastest.
	Reps int
	// Warmup is the number of unmeasured runs before the repetitions
	// (default 0). Warmup results are discarded.
	Warmup int
	// Timeout bounds each individual run (warmup or repetition). Zero means
	// no per-run deadline; the parent context still applies.
	Timeout time.Duration
	// OnEvent, when set, receives progress events. Calls are serialized by
	// the engine, so the callback needs no locking of its own.
	OnEvent func(Event)
	// SampleCap, when positive, enables raw per-op latency capture on every
	// run's collector with buffers of this many samples per operation cell
	// (metrics.EnableSampling). The captured streams surface as
	// Result.Samples and become the runstore blob's series.
	SampleCap int
	// Now, when set, is the clock for repetition timing and sample offsets —
	// the determinism seam distributed equivalence tests freeze so every
	// elapsed-derived field (Elapsed, Throughput, sample offsets) reproduces
	// exactly across processes. Nil means time.Now. Scheduling is unaffected:
	// workload outputs are (spec, seed)-deterministic regardless.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Reps <= 0 {
		c.Reps = 1
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Task is one scheduled workload execution.
type Task struct {
	Workload workloads.Workload
	Category workloads.Category
	Params   workloads.Params
	// Reps, when positive, overrides Config.Reps for this task only —
	// scenario entries use it to repeat selected workloads more (or fewer)
	// times than the rest of the run.
	Reps int
	// Load, when non-nil, switches this task to open-loop mode: instead of
	// back-to-back repetitions, workload executions are dispatched at the
	// arrival process's intended start times over Load.Duration, and the
	// task reports latency-under-load statistics. Warmup runs still happen
	// first; Reps is ignored (the window is the one measured "repetition").
	// The engine fills Load.Rec with the task's collector.
	Load *loadgen.Options
}

// Rep is the outcome of one measured repetition.
type Rep struct {
	Result metrics.Result
	Err    error
}

// RepSummary is an exported snapshot of repetition statistics, suitable for
// reports and JSON output.
type RepSummary struct {
	Count  uint64
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
}

func snapshotSummary(s *stats.Summary) RepSummary {
	if s.Count() == 0 {
		return RepSummary{}
	}
	return RepSummary{
		Count:  s.Count(),
		Mean:   s.Mean(),
		StdDev: s.StdDev(),
		Min:    s.Min(),
		Max:    s.Max(),
	}
}

// TaskResult is the aggregated outcome of one task's warmup + repetitions.
type TaskResult struct {
	Workload string
	Category workloads.Category
	// Reps holds every measured repetition in execution order.
	Reps []Rep
	// Median is the representative result: the successful repetition with
	// median throughput (the first repetition's partial measurements when
	// every repetition failed).
	Median metrics.Result
	// Best is the successful repetition with the highest throughput.
	Best metrics.Result
	// Throughput summarizes the successful repetitions' ops/s.
	Throughput RepSummary
	// Err is the first error observed across the measured repetitions; nil
	// when every repetition succeeded.
	Err error
	// Load carries the open-loop statistics for tasks run in open-loop mode
	// (Task.Load set); nil for closed-loop tasks.
	Load *loadgen.Stats
}

// EventKind labels a progress event.
type EventKind string

// The event kinds streamed during a run.
const (
	// EventTaskStart fires when a worker picks up a task.
	EventTaskStart EventKind = "task-start"
	// EventRepDone fires after each run, warmup or measured.
	EventRepDone EventKind = "rep-done"
	// EventTaskDone fires when a task's last repetition finishes.
	EventTaskDone EventKind = "task-done"
)

// Event is one streamed progress report.
type Event struct {
	Kind     EventKind
	Workload string
	// Task indexes the originating task in the Run call's slice.
	Task int
	// Rep is the 0-based measured repetition, or -1 for warmup runs and
	// task-level events.
	Rep    int
	Warmup bool
	Err    error
	// Elapsed is the run's wall time (rep-done) or the task's total wall
	// time (task-done).
	Elapsed time.Duration
}

// Run executes the tasks on a bounded worker pool and returns one
// TaskResult per task, in task order. It never fails as a whole: workload
// errors, timeouts and panics are reported per repetition. Run returns once
// every task has been scheduled and observed; a cancelled context makes
// remaining runs fail fast with the context's error.
func Run(ctx context.Context, tasks []Task, cfg Config) []TaskResult {
	cfg = cfg.withDefaults()
	if len(tasks) == 0 {
		return nil
	}
	var emitMu sync.Mutex
	emit := func(e Event) {
		if cfg.OnEvent == nil {
			return
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		cfg.OnEvent(e)
	}

	results := make([]TaskResult, len(tasks))
	workers := cfg.Workers
	if workers > len(tasks) {
		workers = len(tasks)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i] = runTask(ctx, i, tasks[i], cfg, emit)
			}
		}()
	}
	for i := range tasks {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return results
}

// runTask executes one task's warmup runs and measured repetitions (or its
// open-loop window when the task carries a load spec).
func runTask(ctx context.Context, idx int, t Task, cfg Config, emit func(Event)) TaskResult {
	name := t.Workload.Name()
	t0 := cfg.Now()
	emit(Event{Kind: EventTaskStart, Workload: name, Task: idx, Rep: -1})

	for i := 0; i < cfg.Warmup; i++ {
		rep := runOnce(ctx, t, cfg, false)
		emit(Event{Kind: EventRepDone, Workload: name, Task: idx, Rep: -1,
			Warmup: true, Err: rep.Err, Elapsed: rep.Result.Elapsed})
		if ctx.Err() != nil {
			break
		}
	}

	var reps []Rep
	var load *loadgen.Stats
	if t.Load != nil {
		rep, st := runOpenLoop(ctx, t, cfg)
		reps, load = []Rep{rep}, &st
		emit(Event{Kind: EventRepDone, Workload: name, Task: idx, Rep: 0,
			Err: rep.Err, Elapsed: rep.Result.Elapsed})
	} else {
		n := cfg.Reps
		if t.Reps > 0 {
			n = t.Reps
		}
		reps = make([]Rep, 0, n)
		for r := 0; r < n; r++ {
			rep := runOnce(ctx, t, cfg, true)
			reps = append(reps, rep)
			emit(Event{Kind: EventRepDone, Workload: name, Task: idx, Rep: r,
				Err: rep.Err, Elapsed: rep.Result.Elapsed})
			if ctx.Err() != nil {
				break
			}
		}
	}
	res := Summarize(name, t.Category, reps, load)
	emit(Event{Kind: EventTaskDone, Workload: name, Task: idx, Rep: -1,
		Err: res.Err, Elapsed: cfg.Now().Sub(t0)})
	return res
}

// Summarize folds a task's measured repetitions into its TaskResult — the
// one place Median, Best, Throughput and Err are derived, for closed-loop
// tasks, open-loop windows (one repetition, load set) and results arriving
// from an agent alike. Median and Best rank the successful repetitions by
// throughput (the first repetition's partial measurements when every one
// failed); Throughput summarizes the successful ones; Err is the first
// repetition error.
func Summarize(workload string, category workloads.Category, reps []Rep, load *loadgen.Stats) TaskResult {
	res := TaskResult{Workload: workload, Category: category, Reps: reps, Load: load}
	var throughput stats.Summary
	var ok []int
	for i, rep := range reps {
		if rep.Err != nil {
			if res.Err == nil {
				res.Err = rep.Err
			}
			continue
		}
		throughput.Observe(rep.Result.Throughput)
		ok = append(ok, i)
	}
	res.Throughput = snapshotSummary(&throughput)
	if len(ok) > 0 {
		sort.Slice(ok, func(a, b int) bool {
			return reps[ok[a]].Result.Throughput < reps[ok[b]].Result.Throughput
		})
		res.Median = reps[ok[len(ok)/2]].Result
		res.Best = reps[ok[len(ok)-1]].Result
	} else if len(reps) > 0 {
		res.Median = reps[0].Result
		res.Best = reps[0].Result
	}
	return res
}

// runOpenLoop drives one task's open-loop window: the loadgen dispatcher
// starts one workload execution at each intended arrival time, every
// execution records into the task's single collector (the collector is
// sharded, so concurrent operations never contend), and the window's merged
// snapshot becomes the task's one measured repetition. Config.Timeout
// bounds each individual operation, exactly as it bounds a closed-loop
// repetition.
func runOpenLoop(ctx context.Context, t Task, cfg Config) (Rep, loadgen.Stats) {
	c := metrics.NewCollector(t.Workload.Name())
	if cfg.SampleCap > 0 {
		c.EnableSamplingClock(cfg.SampleCap, cfg.Now(), cfg.Now)
	}
	opts := *t.Load
	opts.Rec = c
	c.Start()
	st, runErr := loadgen.Run(ctx, opts, func(opCtx context.Context) error {
		if cfg.Timeout > 0 {
			var cancel context.CancelFunc
			opCtx, cancel = context.WithTimeout(opCtx, cfg.Timeout)
			defer cancel()
		}
		// Abandon an overrunning operation at its deadline exactly as the
		// closed-loop runOnce does — same helper, provably same behavior. A
		// non-cooperative workload must not wedge the whole window.
		return awaitRun(opCtx, t, c)
	})
	c.Stop()

	rep := Rep{Result: c.Snapshot(), Err: runErr}
	if runErr == nil && st.Dispatched > 0 && st.Errors == st.Dispatched {
		rep.Err = fmt.Errorf("engine: workload %s: all %d operations failed under load",
			t.Workload.Name(), st.Errors)
	}
	return rep, st
}

// runOnce executes a single run under the configured deadline, isolating
// panics into errors. When the deadline passes before the workload unwinds,
// the repetition is reported with the context error immediately; the
// workload goroutine observes the same context cooperatively and exits on
// its own (the collector is concurrency-safe, so late writes are harmless).
// Sample capture (measured reps only — warmup is discarded, so capturing it
// would only burn buffer memory) is enabled before the workload sees the
// collector, so every cell it builds carries a buffer.
func runOnce(ctx context.Context, t Task, cfg Config, measured bool) Rep {
	runCtx, cancel := ctx, func() {}
	if cfg.Timeout > 0 {
		runCtx, cancel = context.WithTimeout(ctx, cfg.Timeout)
	}
	defer cancel()

	c := metrics.NewCollector(t.Workload.Name())
	if measured && cfg.SampleCap > 0 {
		c.EnableSamplingClock(cfg.SampleCap, cfg.Now(), cfg.Now)
	}
	if err := runCtx.Err(); err != nil {
		// Already expired or cancelled: fail fast without starting the run.
		return Rep{Result: c.Snapshot(), Err: err}
	}
	t0 := cfg.Now()
	err := awaitRun(runCtx, t, c)
	c.SetElapsed(cfg.Now().Sub(t0))
	return Rep{Result: c.Snapshot(), Err: err}
}

// awaitRun executes the workload in its own goroutine — converting a panic
// into an error — and returns the moment it finishes or ctx expires,
// whichever comes first. On expiry the workload goroutine is abandoned to
// unwind cooperatively on its own; the collector is concurrency-safe, so
// late writes are harmless. Both execution modes share this helper, so
// closed-loop repetitions and open-loop operations are abandoned
// identically.
func awaitRun(ctx context.Context, t Task, c *metrics.Collector) error {
	done := donePool.Get().(chan error)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				done <- fmt.Errorf("engine: workload %s panicked: %v", t.Workload.Name(), r)
			}
		}()
		done <- t.Workload.Run(ctx, t.Params, c)
	}()
	select {
	case err := <-done:
		donePool.Put(done)
		return err
	case <-ctx.Done():
		// The abandoned goroutine still owns the channel and will complete
		// its one buffered send later; recycling it here could deliver that
		// stale result to an unrelated run. Let it be garbage instead.
		return ctx.Err()
	}
}

// donePool recycles awaitRun's one-slot completion channels. Open-loop mode
// calls awaitRun once per dispatched operation, so without reuse every
// operation pays a channel allocation. A channel is returned to the pool
// only after its result was received — a drained one-slot channel is
// indistinguishable from new.
var donePool = sync.Pool{
	New: func() any { return make(chan error, 1) },
}
