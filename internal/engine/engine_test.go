package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// fakeWorkload is a configurable test workload.
type fakeWorkload struct {
	name string
	run  func(ctx context.Context, p workloads.Params, c *metrics.Collector) error
}

func (f fakeWorkload) Name() string               { return f.name }
func (fakeWorkload) Category() workloads.Category { return workloads.Offline }
func (fakeWorkload) Domain() string               { return "test" }
func (fakeWorkload) StackTypes() []stacks.Type    { return nil }
func (f fakeWorkload) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	return f.run(ctx, p, c)
}

// seededWorkload does deterministic seeded work: it hashes RNG draws into a
// counter, so any scheduling-dependent behaviour would change the result.
func seededWorkload(name string) fakeWorkload {
	return fakeWorkload{name: name, run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		g := stats.NewRNG(p.Seed)
		var acc int64
		for i := 0; i < 10000; i++ {
			acc += int64(g.IntN(1 << 20))
		}
		c.CounterRef("records").Add(10000)
		c.CounterRef("checksum").Add(acc)
		return nil
	}}
}

func tasksOf(ws ...workloads.Workload) []Task {
	tasks := make([]Task, len(ws))
	for i, w := range ws {
		tasks[i] = Task{Workload: w, Category: w.Category(), Params: workloads.Params{Seed: 7 + uint64(i), Scale: 1, Workers: 2}}
	}
	return tasks
}

// TestDeterminismAcrossWorkerCounts is the engine's core guarantee: the
// same seeds produce identical per-workload results (in identical order) at
// workers=1 and workers=8.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	var ws []workloads.Workload
	for i := 0; i < 8; i++ {
		ws = append(ws, seededWorkload(fmt.Sprintf("seeded-%d", i)))
	}
	sequential := Run(context.Background(), tasksOf(ws...), Config{Workers: 1})
	parallel := Run(context.Background(), tasksOf(ws...), Config{Workers: 8})
	if len(sequential) != len(parallel) || len(sequential) != 8 {
		t.Fatalf("result lengths: %d vs %d", len(sequential), len(parallel))
	}
	for i := range sequential {
		s, p := sequential[i], parallel[i]
		if s.Workload != p.Workload {
			t.Fatalf("order differs at %d: %s vs %s", i, s.Workload, p.Workload)
		}
		if s.Err != nil || p.Err != nil {
			t.Fatalf("%s: unexpected errors %v / %v", s.Workload, s.Err, p.Err)
		}
		for _, key := range []string{"records", "checksum"} {
			if sv, pv := s.Median.Counters[key], p.Median.Counters[key]; sv != pv {
				t.Fatalf("%s: counter %s differs across worker counts: %d vs %d", s.Workload, key, sv, pv)
			}
		}
	}
}

// TestTimeoutCancelsWorkload verifies that an overrunning workload observes
// the per-run deadline through its context and that the repetition reports
// the deadline error.
func TestTimeoutCancelsWorkload(t *testing.T) {
	var observed atomic.Bool
	blocker := fakeWorkload{name: "blocker", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		<-ctx.Done()
		observed.Store(true)
		return ctx.Err()
	}}
	res := Run(context.Background(), tasksOf(blocker), Config{Workers: 2, Timeout: 20 * time.Millisecond})
	if len(res) != 1 {
		t.Fatalf("results %d", len(res))
	}
	if !errors.Is(res[0].Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", res[0].Err)
	}
	// The workload observes the same cancellation cooperatively.
	deadline := time.Now().Add(2 * time.Second)
	for !observed.Load() {
		if time.Now().After(deadline) {
			t.Fatal("workload never observed the context cancellation")
		}
		time.Sleep(time.Millisecond)
	}
	if res[0].Median.Elapsed <= 0 {
		t.Fatal("timed-out repetition has no elapsed time")
	}
}

// TestPanicIsolation proves a panicking workload becomes an error without
// poisoning sibling results.
func TestPanicIsolation(t *testing.T) {
	bomb := fakeWorkload{name: "bomb", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		panic("kaboom")
	}}
	res := Run(context.Background(),
		tasksOf(seededWorkload("left"), bomb, seededWorkload("right")),
		Config{Workers: 3})
	if len(res) != 3 {
		t.Fatalf("results %d", len(res))
	}
	if res[0].Err != nil || res[2].Err != nil {
		t.Fatalf("siblings poisoned: %v / %v", res[0].Err, res[2].Err)
	}
	if res[0].Median.Counters["records"] != 10000 || res[2].Median.Counters["records"] != 10000 {
		t.Fatal("sibling results incomplete")
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "panicked") {
		t.Fatalf("panic not converted to error: %v", res[1].Err)
	}
	if !strings.Contains(res[1].Err.Error(), "kaboom") {
		t.Fatalf("panic value lost: %v", res[1].Err)
	}
}

// TestWarmupAndReps checks repetition accounting: warmup runs execute but
// are not measured, reps are, and median/best are drawn from the reps.
func TestWarmupAndReps(t *testing.T) {
	var runs atomic.Int64
	counting := fakeWorkload{name: "counting", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		runs.Add(1)
		c.CounterRef("records").Add(1000)
		return nil
	}}
	var events []Event
	res := Run(context.Background(), tasksOf(counting), Config{
		Workers: 1, Warmup: 2, Reps: 3,
		OnEvent: func(e Event) { events = append(events, e) },
	})
	if got := runs.Load(); got != 5 {
		t.Fatalf("runs %d, want 5 (2 warmup + 3 reps)", got)
	}
	r := res[0]
	if len(r.Reps) != 3 {
		t.Fatalf("measured reps %d, want 3", len(r.Reps))
	}
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Throughput.Count != 3 {
		t.Fatalf("throughput summary count %d, want 3", r.Throughput.Count)
	}
	if r.Median.Throughput <= 0 || r.Best.Throughput < r.Median.Throughput {
		t.Fatalf("median/best inconsistent: median=%v best=%v", r.Median.Throughput, r.Best.Throughput)
	}

	// Event stream: task-start, 2 warmup rep-dones, 3 measured rep-dones,
	// task-done — serialized, in order for a single task.
	var kinds []EventKind
	warmups, measured := 0, 0
	for _, e := range events {
		kinds = append(kinds, e.Kind)
		if e.Kind == EventRepDone {
			if e.Warmup {
				warmups++
			} else {
				measured++
			}
		}
	}
	if len(events) != 7 || kinds[0] != EventTaskStart || kinds[6] != EventTaskDone {
		t.Fatalf("event stream %v", kinds)
	}
	if warmups != 2 || measured != 3 {
		t.Fatalf("warmup/measured events %d/%d", warmups, measured)
	}
}

// TestAllRepsFailed keeps partial measurements when every repetition fails.
func TestAllRepsFailed(t *testing.T) {
	failing := fakeWorkload{name: "failing", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
		c.CounterRef("records").Add(5)
		return errors.New("verification failed")
	}}
	res := Run(context.Background(), tasksOf(failing), Config{Workers: 1, Reps: 2})
	r := res[0]
	if r.Err == nil || r.Throughput.Count != 0 {
		t.Fatalf("err=%v summary=%+v", r.Err, r.Throughput)
	}
	if r.Median.Counters["records"] != 5 {
		t.Fatal("partial measurements dropped")
	}
}

// settle fails the test unless the goroutine count comes back down to
// before within a second.
func settle(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("goroutines %d, %d before the run", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCancelledRunWaitsForTheWorkload: a parent cancelled mid-warmup or
// mid-repetition fails the run, and Run returns only after the workload,
// which takes 20 ms to unwind once it sees the cancel, has returned.
func TestCancelledRunWaitsForTheWorkload(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cancelAt int64 // the call that cancels: 1 is the warmup, 2 the first repetition
	}{{"mid-warmup", 1}, {"mid-repetition", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			var returned atomic.Bool
			w := fakeWorkload{name: "cancelled", run: func(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
				if calls.Add(1) != tc.cancelAt {
					return nil
				}
				cancel()
				<-ctx.Done()
				time.Sleep(20 * time.Millisecond) // unwinding
				returned.Store(true)
				return ctx.Err()
			}}
			before := runtime.NumGoroutine()
			res := Run(ctx, tasksOf(w), Config{Workers: 1, Warmup: 1, Reps: 3})[0]
			if !returned.Load() {
				t.Fatal("Run returned before the cancelled workload did")
			}
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", res.Err)
			}
			if got := calls.Load(); got != tc.cancelAt {
				t.Fatalf("%d workload call(s) after a cancel at call %d", got-tc.cancelAt, tc.cancelAt)
			}
			settle(t, before)
		})
	}
}

// TestOverrunningRepetitionFails: a repetition that ignores its context
// and sleeps 40 ms through a 10 ms Timeout fails with the deadline error
// although the workload returned nil, and Run returns only after it has.
func TestOverrunningRepetitionFails(t *testing.T) {
	var returned atomic.Bool
	w := fakeWorkload{name: "overrun", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		time.Sleep(40 * time.Millisecond) // ignores ctx entirely
		returned.Store(true)
		return nil
	}}
	res := Run(context.Background(), tasksOf(w), Config{Workers: 1, Timeout: 10 * time.Millisecond})[0]
	if !returned.Load() {
		t.Fatal("Run returned before the overrunning workload did")
	}
	if !errors.Is(res.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", res.Err)
	}
	if res.Median.Elapsed < 40*time.Millisecond {
		t.Fatalf("elapsed %v; the repetition ends when the workload returns", res.Median.Elapsed)
	}
}

// TestParentCancellationFailsFast: a cancelled parent context makes
// remaining repetitions report the cancellation promptly.
func TestParentCancellationFailsFast(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(ctx, tasksOf(seededWorkload("a"), seededWorkload("b")), Config{Workers: 1, Reps: 3})
	for _, r := range res {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("%s: err = %v, want canceled", r.Workload, r.Err)
		}
		if len(r.Reps) != 1 {
			t.Fatalf("%s: ran %d reps after cancellation, want 1 fast-failing rep", r.Workload, len(r.Reps))
		}
	}
}
