package engine

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/workloads"
)

// openLoopTask builds a task running the workload at the given offered
// rate over the window.
func openLoopTask(w workloads.Workload, rate float64, d time.Duration) Task {
	return Task{
		Workload: w,
		Category: w.Category(),
		Params:   workloads.Params{Seed: 7, Scale: 1, Workers: 2},
		Load:     &loadgen.Options{Rate: rate, Arrival: loadgen.Constant{}, Duration: d},
	}
}

// TestOpenLoopTask drives one task in open-loop mode and checks the
// result shape: load statistics attached, one synthetic repetition whose
// snapshot carries the request latencies recorded from intended starts.
func TestOpenLoopTask(t *testing.T) {
	var calls atomic.Int64
	w := fakeWorkload{name: "under-load", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		calls.Add(1)
		c.CounterRef("records").Add(1)
		return nil
	}}
	results := Run(context.Background(), []Task{openLoopTask(w, 200, 200*time.Millisecond)}, Config{Workers: 1})
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	res := results[0]
	if res.Err != nil {
		t.Fatalf("unexpected error: %v", res.Err)
	}
	if res.Load == nil {
		t.Fatal("open-loop task returned no load statistics")
	}
	if res.Load.Scheduled != 40 || res.Load.Dispatched != 40 {
		t.Fatalf("scheduled/dispatched %d/%d, want 40/40", res.Load.Scheduled, res.Load.Dispatched)
	}
	if int(calls.Load()) != 40 {
		t.Fatalf("workload ran %d times, want 40", calls.Load())
	}
	if len(res.Reps) != 1 {
		t.Fatalf("open-loop task has %d reps, want 1 (the window)", len(res.Reps))
	}
	var foundRequest bool
	for _, op := range res.Median.Ops {
		if op.Op == loadgen.OpRequest && op.Substrate && op.Count == 40 {
			foundRequest = true
		}
	}
	if !foundRequest {
		t.Fatalf("snapshot missing substrate-level %q op: %+v", loadgen.OpRequest, res.Median.Ops)
	}
	if res.Median.Counters["records"] != 40 {
		t.Fatalf("counters not merged across operations: %+v", res.Median.Counters)
	}
}

// TestOpenLoopWindowReadsRunClock: an open-loop window is timed on the run's
// clock like a closed-loop repetition, and so is whatever its operations
// time, and so are loadgen's own request, service and wait latencies, so a
// frozen Config.Now reads zero for all of them. The dispatcher paces on the
// same clock, so under the frozen one it sleeps no wall time: ten arrivals
// at 200/s would take 45ms to release on the wall clock.
func TestOpenLoopWindowReadsRunClock(t *testing.T) {
	w := fakeWorkload{name: "timed", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		t0 := c.Now()
		time.Sleep(time.Millisecond)
		c.Op("op").Observe(c.Now().Sub(t0))
		return nil
	}}
	frozen := func() time.Time { return time.Unix(1754600000, 0) }
	start := time.Now()
	res := Run(context.Background(), []Task{openLoopTask(w, 200, 50*time.Millisecond)}, Config{Workers: 1, Now: frozen})[0]
	took := time.Since(start)
	if res.Err != nil || res.Load.Dispatched != 10 {
		t.Fatalf("err %v, %d dispatched; want nil, 10", res.Err, res.Load.Dispatched)
	}
	if res.Median.Elapsed != 0 || res.Load.Elapsed != 0 {
		t.Fatalf("window elapsed %v, load elapsed %v under a frozen clock, want 0", res.Median.Elapsed, res.Load.Elapsed)
	}
	ops := map[string]metrics.OpStats{}
	for _, op := range res.Median.Ops {
		ops[op.Op] = op
	}
	for _, name := range []string{"op", loadgen.OpRequest, loadgen.OpService, loadgen.OpWait} {
		if op := ops[name]; op.Count != 10 || op.Max != 0 {
			t.Fatalf("%s: %d observation(s), max %v; want 10 of 0", name, op.Count, op.Max)
		}
	}
	if l := res.Load; l.Latency.Max != 0 || l.Service.Max != 0 || l.Wait.Max != 0 {
		t.Fatalf("load latency/service/wait max %v/%v/%v, want 0", l.Latency.Max, l.Service.Max, l.Wait.Max)
	}
	if took >= 40*time.Millisecond {
		t.Fatalf("a frozen-clock window took %v of wall time: the dispatcher paced on the wall clock", took)
	}
}

// TestOpenLoopAllFailures verifies a window whose every operation errors
// surfaces as the task's error.
func TestOpenLoopAllFailures(t *testing.T) {
	w := fakeWorkload{name: "broken", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		return errors.New("boom")
	}}
	results := Run(context.Background(), []Task{openLoopTask(w, 100, 100*time.Millisecond)}, Config{Workers: 1})
	res := results[0]
	if res.Load == nil || res.Load.Errors != res.Load.Dispatched {
		t.Fatalf("want all operations failed, got %+v", res.Load)
	}
	if res.Err == nil {
		t.Fatal("task error not set when every operation failed")
	}
}

// TestOpenLoopTimeoutBoundsOperations verifies Config.Timeout bounds each
// individual operation, exactly as it bounds a closed-loop repetition.
func TestOpenLoopTimeoutBoundsOperations(t *testing.T) {
	w := fakeWorkload{name: "slow", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Second):
			return nil
		}
	}}
	start := time.Now()
	results := Run(context.Background(),
		[]Task{openLoopTask(w, 20, 100*time.Millisecond)},
		Config{Workers: 1, Timeout: 20 * time.Millisecond})
	if took := time.Since(start); took > 3*time.Second {
		t.Fatalf("open-loop run with per-op timeout took %v", took)
	}
	res := results[0]
	if res.Load == nil || res.Load.Errors != res.Load.Dispatched {
		t.Fatalf("timed-out operations not counted as errors: %+v", res.Load)
	}
}

// TestOpenLoopDeadlineIsDeadlineExceeded: an open-loop operation still
// running at Config.Timeout fails with an error that is
// context.DeadlineExceeded, as a closed-loop repetition does, and a window
// of nothing else fails with it.
func TestOpenLoopDeadlineIsDeadlineExceeded(t *testing.T) {
	w := fakeWorkload{name: "overrun", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		time.Sleep(20 * time.Millisecond) // ignores ctx entirely
		return nil
	}}
	res := Run(context.Background(),
		[]Task{openLoopTask(w, 50, 60*time.Millisecond)},
		Config{Workers: 1, Timeout: 5 * time.Millisecond})[0]
	if res.Load == nil || res.Load.Errors != res.Load.Dispatched || res.Load.Dispatched == 0 {
		t.Fatalf("overrunning operations not counted as errors: %+v", res.Load)
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", res.Err)
	}
}

// TestOpenLoopOverrunningOperationFails: an operation that ignores its
// context and overruns its deadline is counted as an error although it
// returned nil, the window still completes, and nothing is left running
// when Run returns.
func TestOpenLoopOverrunningOperationFails(t *testing.T) {
	var running atomic.Int64
	w := fakeWorkload{name: "overrun", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		running.Add(1)
		defer running.Add(-1)
		time.Sleep(40 * time.Millisecond) // ignores ctx entirely
		return nil
	}}
	before := runtime.NumGoroutine()
	res := Run(context.Background(),
		[]Task{openLoopTask(w, 50, 100*time.Millisecond)},
		Config{Workers: 1, Timeout: 10 * time.Millisecond})[0]
	if n := running.Load(); n != 0 {
		t.Fatalf("%d operation(s) still running when Run returned", n)
	}
	if res.Load == nil || res.Load.Dispatched != res.Load.Scheduled || res.Load.Dispatched == 0 {
		t.Fatalf("window did not complete: %+v", res.Load)
	}
	if res.Load.Errors != res.Load.Dispatched {
		t.Fatalf("%d of %d overrunning operations counted as errors", res.Load.Errors, res.Load.Dispatched)
	}
	settle(t, before)
}

// TestOpenLoopCancelMidDispatchWaits: the parent is cancelled while the
// window is dispatching; Run returns only after the operation that was
// running has unwound, and reports the cancellation.
func TestOpenLoopCancelMidDispatchWaits(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	var returned atomic.Bool
	w := fakeWorkload{name: "cancelled", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		if calls.Add(1) != 3 {
			return nil
		}
		cancel()
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond) // unwinding
		returned.Store(true)
		return ctx.Err()
	}}
	before := runtime.NumGoroutine()
	res := Run(ctx, []Task{openLoopTask(w, 100, 200*time.Millisecond)}, Config{Workers: 1})[0]
	if !returned.Load() {
		t.Fatal("Run returned before the cancelled operation did")
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", res.Err)
	}
	if res.Load.Skipped == 0 {
		t.Fatalf("no arrival skipped after the cancel: %+v", res.Load)
	}
	settle(t, before)
}

// TestOpenLoopScheduleIdenticalAcrossEngineWorkers is the determinism
// guarantee one level up: the arrival schedule depends only on seed, rate
// and window — the engine's worker count changes nothing about what load
// is offered.
func TestOpenLoopScheduleIdenticalAcrossEngineWorkers(t *testing.T) {
	mk := func() []Task {
		var tasks []Task
		for i := 0; i < 4; i++ {
			tasks = append(tasks, openLoopTask(seededWorkload("seeded"), 100, 100*time.Millisecond))
		}
		return tasks
	}
	seq := Run(context.Background(), mk(), Config{Workers: 1})
	par := Run(context.Background(), mk(), Config{Workers: 4})
	for i := range seq {
		s, p := seq[i].Load, par[i].Load
		if s == nil || p == nil {
			t.Fatalf("task %d: missing load stats", i)
		}
		if s.Scheduled != p.Scheduled || s.Dispatched != p.Dispatched {
			t.Fatalf("task %d: offered load differs across engine workers: %d/%d vs %d/%d",
				i, s.Scheduled, s.Dispatched, p.Scheduled, p.Dispatched)
		}
	}
}
