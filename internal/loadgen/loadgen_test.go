package loadgen

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
)

// TestRunExecutesSchedule runs a trivial operation under a constant load
// and checks the accounting: everything scheduled is dispatched, nothing
// errors, achieved tracks offered.
func TestRunExecutesSchedule(t *testing.T) {
	var calls atomic.Int64
	st, err := Run(context.Background(), Options{Rate: 500, Duration: 200 * time.Millisecond},
		func(context.Context) error { calls.Add(1); return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Scheduled != 100 {
		t.Fatalf("scheduled %d, want 100", st.Scheduled)
	}
	if st.Dispatched != st.Scheduled || int(calls.Load()) != st.Scheduled {
		t.Fatalf("dispatched %d, calls %d, want %d", st.Dispatched, calls.Load(), st.Scheduled)
	}
	if st.Errors != 0 || st.Skipped != 0 {
		t.Fatalf("errors=%d skipped=%d, want 0/0", st.Errors, st.Skipped)
	}
	if st.Achieved < 400 || st.Achieved > 550 {
		t.Fatalf("achieved %.0f/s, want about 500/s", st.Achieved)
	}
	if st.Latency.Count != 100 || st.Service.Count != 100 || st.Wait.Count != 100 {
		t.Fatalf("latency counts %d/%d/%d, want 100 each",
			st.Latency.Count, st.Service.Count, st.Wait.Count)
	}
}

// TestCoordinatedOmissionGuard is the regression test for intended-start
// recording. The run's clock stalls once: its first read, the run's t0, is
// base, and every later read is base+stall, so every arrival scheduled
// inside the stall is dispatched after its intended start. A service-time
// view sees only instant operations: the delay vanishes. The intended-start
// view must charge it to every late request.
func TestCoordinatedOmissionGuard(t *testing.T) {
	const (
		stall  = 80 * time.Millisecond
		rate   = 200 // 5ms apart
		window = 150 * time.Millisecond
	)
	base := time.Unix(1000, 0)
	var read atomic.Bool
	c := metrics.NewCollector("guard")
	c.SetClock(func() time.Time {
		if read.CompareAndSwap(false, true) {
			return base
		}
		return base.Add(stall)
	})
	st, err := Run(context.Background(), Options{
		Rate:     rate,
		Duration: window,
		Rec:      c,
	}, func(context.Context) error { return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Dispatched != st.Scheduled {
		t.Fatalf("dispatched %d of %d", st.Dispatched, st.Scheduled)
	}
	// The service view is blind to the stall: no operation took any time.
	if st.Service.Max != 0 {
		t.Fatalf("service max %v, want 0 on a clock that moves only once", st.Service.Max)
	}
	// The intended-start view is not: arrivals dispatched late carry their
	// full waiting time, so the p95 tail must be within reach of the stall
	// itself.
	if st.Latency.P95 < stall/2 {
		t.Fatalf("intended-start p95 %v did not surface the %v stall (coordinated omission)",
			st.Latency.P95, stall)
	}
	if st.Wait.Max < stall/2 {
		t.Fatalf("queueing delay max %v did not surface the stall", st.Wait.Max)
	}
}

// TestRunRecordsIntoCollector verifies the one observation set: the
// request/service/wait observations land substrate-marked, so the
// collector's Throughput still counts only the operations' own user-level
// measurements — each logical operation exactly once, never inflated by
// the load generator's bookkeeping.
func TestRunRecordsIntoCollector(t *testing.T) {
	c := metrics.NewCollector("under-load")
	t0 := c.Now()
	st, err := Run(context.Background(), Options{
		Rate: 300, Duration: 100 * time.Millisecond, Rec: c,
	}, func(context.Context) error {
		// The operation measures itself at the user level, as a real
		// workload execution does.
		c.Op("work").Observe(time.Microsecond)
		return nil
	})
	c.SetElapsed(c.Now().Sub(t0))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	res := c.Snapshot()
	byOp := map[string]metrics.OpStats{}
	for _, op := range res.Ops {
		byOp[op.Op] = op
	}
	for name, digest := range map[string]LatencySummary{OpRequest: st.Latency, OpService: st.Service, OpWait: st.Wait} {
		rec, ok := byOp[name]
		if !ok || !rec.Substrate {
			t.Fatalf("%s missing or not substrate-marked: %+v", name, byOp[name])
		}
		if rec.Count != uint64(st.Dispatched) {
			t.Fatalf("%s count %d, want %d", name, rec.Count, st.Dispatched)
		}
		// The Stats digest is a view of the recorded op, not a second
		// measurement: every field agrees with the snapshot's row.
		if row := (LatencySummary{Count: rec.Count, Mean: rec.Mean, P50: rec.P50, P95: rec.P95, P99: rec.P99, Max: rec.Max}); digest != row {
			t.Fatalf("%s: Stats digest %+v, collector row %+v", name, digest, row)
		}
	}
	if work, ok := byOp["work"]; !ok || work.Substrate {
		t.Fatalf("operation's own measurement missing or demoted: %+v", byOp["work"])
	}
	// Throughput counts the operations' own observations once — not the
	// loadgen echoes on top.
	want := float64(st.Dispatched) / res.Elapsed.Seconds()
	if res.Throughput < want*0.99 || res.Throughput > want*1.01 {
		t.Fatalf("throughput %.1f double-counts loadgen ops (want %.1f)", res.Throughput, want)
	}
}

// TestRunCountsErrorsAndPanics verifies per-operation failure isolation.
func TestRunCountsErrorsAndPanics(t *testing.T) {
	var n atomic.Int64
	st, err := Run(context.Background(), Options{Rate: 100, Duration: 100 * time.Millisecond},
		func(context.Context) error {
			switch n.Add(1) {
			case 1:
				return errors.New("op failed")
			case 2:
				panic("op exploded")
			}
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Errors != 2 {
		t.Fatalf("errors %d, want 2 (one error + one panic)", st.Errors)
	}
	if st.Dispatched != st.Scheduled {
		t.Fatalf("dispatched %d of %d", st.Dispatched, st.Scheduled)
	}
}

// TestRunCancellation verifies a cancelled context stops dispatch, reports
// the remainder as skipped and returns the context error.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var n atomic.Int64
	_, err := Run(ctx, Options{Rate: 100, Duration: 2 * time.Second},
		func(context.Context) error {
			if n.Add(1) == 3 {
				cancel()
			}
			return nil
		})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled wrap, got %v", err)
	}
	if got := int(n.Load()); got >= 200 {
		t.Fatalf("dispatch did not stop: %d operations ran", got)
	}
}

// TestRunRejectsBadOptions covers the validation errors.
func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(context.Background(), Options{Rate: 0, Duration: time.Second}, nil); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := Run(context.Background(), Options{Rate: 10, Duration: 0}, nil); err == nil {
		t.Fatal("zero duration accepted")
	}
}

// TestRunVirtualClock paces on the wall clock, a nil collector's: the
// dispatcher sleeps each arrival to its intended offset, so no operation
// starts before it. Ten arrivals at 10/s are 100ms apart. Run reads its t0
// after the test's own start, so an operation that started on time is at
// least its offset past that start; the k-th earliest start is matched
// against the k-th offset, since operations may begin in any order.
func TestRunVirtualClock(t *testing.T) {
	var mu sync.Mutex
	var starts []time.Duration
	begin := time.Now()
	st, err := Run(context.Background(), Options{Rate: 10, Duration: time.Second},
		func(context.Context) error {
			mu.Lock()
			starts = append(starts, time.Since(begin))
			mu.Unlock()
			return nil
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Scheduled != 10 || st.Dispatched != 10 || len(starts) != 10 {
		t.Fatalf("scheduled %d dispatched %d started %d, want 10/10/10", st.Scheduled, st.Dispatched, len(starts))
	}
	slices.Sort(starts)
	for i, off := range Schedule(Constant{}, 10, time.Second, 0) {
		if starts[i] < off {
			t.Fatalf("operation %d started %v into the run, before its intended offset %v", i, starts[i], off)
		}
	}
}

// TestRunCancelDuringSleep verifies the pacing sleep itself honors the
// context: a sparse schedule (one arrival per second) must not hold
// shutdown hostage for the remainder of a pacing gap.
func TestRunCancelDuringSleep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var st Stats
	var err error
	start := time.Now()
	go func() {
		defer close(done)
		st, err = Run(ctx, Options{Rate: 1, Duration: 30 * time.Second},
			func(context.Context) error { return nil })
	}()
	time.Sleep(50 * time.Millisecond) // let the dispatcher park in its pacing sleep
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return promptly after cancellation during a pacing sleep")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shutdown took %v: pacing sleep ignored the context", elapsed)
	}
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled wrap, got %v", err)
	}
	if st.Skipped == 0 {
		t.Fatalf("cancelled run reported no skipped arrivals: %+v", st)
	}
}

// TestDispatchSteadyStateZeroAlloc asserts the per-operation hot path —
// execOne through the histograms and the pre-resolved OpRefs, and with a
// timeout a re-armed deadline from the run's free list — allocates nothing
// once the run state and its one deadline exist. This is the loadgen half
// of the zero-allocation contract; BenchmarkDispatchSteadyState prices the
// same path. The contract is exact: the run's clock is fixed, so every
// operation records the same request, service and wait latencies, whose
// histogram pages AllocsPerRun's warm-up pass installs; then 1 000 operations
// measured as one run must allocate nothing, so a fraction of an
// allocation per operation fails the test too.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	const ops = 1000
	for _, tc := range dispatchCases {
		t.Run(tc.name, func(t *testing.T) {
			r := steadyRunState(tc.timeout)
			allocs := testing.AllocsPerRun(1, func() {
				for range ops {
					r.execOne(time.Millisecond)
				}
			}) / ops
			if raceflag.Enabled {
				t.Skipf("allocation counts not asserted under -race (measured %.4f)", allocs)
			}
			if allocs != 0 {
				t.Errorf("dispatch steady state: %.4f allocs/op, want 0", allocs)
			}
		})
	}
}

// TestSaturatedRunAllocatesPerRunNotPerArrival covers what
// TestDispatchSteadyStateZeroAlloc does not: handing arrivals to workers
// and starting workers. A 2M/s schedule over 100ms has the dispatcher run
// ahead of its workers, so it starts workers throughout the run; each
// start must allocate nothing once the runtime holds goroutines to reuse,
// so a run costs its fixed set-up, not objects per arrival. Under a
// timeout, as every benchmark spec sets, the deadlines a run builds are
// part of that set-up: one per operation in flight at once. The count is
// the least of up to three runs after the warm-up: the host can only add
// to it (a worker stalled by another process is not idle, so the
// dispatcher starts another, which may need a deadline of its own), never
// take from it.
func TestSaturatedRunAllocatesPerRunNotPerArrival(t *testing.T) {
	const arrivals, bound = 200000, 2000
	for _, tc := range []struct {
		name    string
		timeout time.Duration
	}{{"no-deadline", 0}, {"deadline", 2 * time.Minute}} {
		t.Run(tc.name, func(t *testing.T) {
			measure := func() uint64 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				st, err := Run(context.Background(), Options{Rate: 2e6, Duration: 100 * time.Millisecond, Timeout: tc.timeout},
					func(context.Context) error { return nil })
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("Run: %v", err)
				}
				if st.Scheduled != arrivals || st.Dispatched != st.Scheduled {
					t.Fatalf("dispatched %d of %d, want %d of %d", st.Dispatched, st.Scheduled, arrivals, arrivals)
				}
				return after.Mallocs - before.Mallocs
			}
			measure() // warm-up: the goroutines a saturated run needs exist afterwards
			least := measure()
			if raceflag.Enabled {
				t.Skipf("allocation counts not asserted under -race (measured %d)", least)
			}
			for i := 1; i < 3 && least >= bound; i++ {
				least = min(least, measure())
			}
			if least >= bound {
				t.Errorf("a saturated run of %d arrivals made at least %d heap allocations, want fewer than %d", arrivals, least, bound)
			}
		})
	}
}

// TestBlockedOperationsDoNotHoldBackArrivals pins unbounded concurrency:
// every operation blocks until all n of the schedule are in flight at
// once, which happens only if no arrival waits for an earlier operation
// to finish.
func TestBlockedOperationsDoNotHoldBackArrivals(t *testing.T) {
	for _, n := range []int{1, 2, 64, 500} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			const rate = 100000
			var inFlight atomic.Int64
			st, err := Run(context.Background(), Options{Rate: rate, Duration: time.Duration(n) * time.Second / rate},
				func(context.Context) error { return awaitInFlight(&inFlight, n) })
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if st.Scheduled != n || st.Dispatched != n || st.Errors != 0 {
				t.Fatalf("scheduled %d dispatched %d errors %d; want %d, %d and 0", st.Scheduled, st.Dispatched, st.Errors, n, n)
			}
		})
	}
}

// awaitInFlight counts one more operation in flight and waits until n
// are. An operation that waits 5s gives up with an error instead of
// hanging the test.
func awaitInFlight(inFlight *atomic.Int64, n int) error {
	inFlight.Add(1)
	for give := time.Now().Add(5 * time.Second); inFlight.Load() < int64(n); {
		if time.Now().After(give) {
			return fmt.Errorf("%d of %d operations in flight after 5s", inFlight.Load(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// dispatchCases are the per-operation deadlines the steady-state dispatch
// path is held at zero allocations under: none, and one no operation
// reaches.
var dispatchCases = []struct {
	name    string
	timeout time.Duration
}{{"no-deadline", 0}, {"deadline", time.Hour}}

// steadyRunState builds a run state on a fixed clock and dispatches one
// operation through it to warm the substrate labels and, with a timeout,
// build the run's one deadline.
func steadyRunState(timeout time.Duration) *runState {
	base := time.Unix(1000, 0)
	c := metrics.NewCollector("wl")
	c.SetClock(func() time.Time { return base })
	r := newRunState(context.Background(), func(context.Context) error { return nil }, c, timeout)
	r.execOne(0)
	return r
}

// execOne runs one operation as a run's only worker does: under the
// deadline the worker holds when the run has a timeout, which exec arms
// and disarms. Between calls the head of the free list stands for that
// held deadline. The first call takes it, as a worker's first operation
// does; from then on a call takes no lock, and a deadline whose timer
// fired is dropped, as the worker drops it.
func (r *runState) execOne(offset time.Duration) {
	if r.timeout > 0 && r.free == nil {
		r.freeDeadline(r.holdDeadline())
	}
	d := r.free
	if r.exec(offset, d) == nil && d != nil {
		r.free = d.next
	}
}

// takeDeadline returns a deadline armed for one operation, as exec arms
// the one a worker holds.
func (r *runState) takeDeadline() *deadline {
	d := r.holdDeadline()
	d.timer.Reset(r.timeout)
	return d
}

// putDeadline ends a deadline as exec and then the worker's exit do:
// disarmed, then back on the free list unless its timer fired.
func (r *runState) putDeadline(d *deadline) {
	if d.disarm() {
		r.freeDeadline(d)
	}
}

// TestHeldDeadlineIsDisarmed: a worker may be held up for longer than the
// timeout between taking its deadline and running an operation under it,
// or between two operations: descheduled, or parked to assist the GC. The
// deadline must not run down meanwhile. exec alone arms it, so every
// operation under it starts with a live context and the worker keeps it.
// Both a new deadline and one back from the free list are covered.
func TestHeldDeadlineIsDisarmed(t *testing.T) {
	const timeout = 25 * time.Millisecond
	var stale atomic.Int64
	r := newRunState(context.Background(), func(ctx context.Context) error {
		if ctx.Err() != nil {
			stale.Add(1)
		}
		return nil
	}, nil, timeout)
	var first *deadline
	for _, source := range []string{"new", "free list"} {
		d := r.holdDeadline()
		if source == "new" {
			first = d
		} else if d != first {
			t.Fatal("a deadline put back on the free list was not taken again")
		}
		for i := range 2 {
			time.Sleep(2 * timeout)
			if d = r.exec(0, d); d == nil {
				t.Fatalf("%s deadline, operation %d: the worker lost a deadline its operation did not overrun", source, i)
			}
			if n := stale.Load(); n != 0 {
				t.Fatalf("%s deadline, operation %d: started with a cancelled context after the worker was held up past the timeout", source, i)
			}
		}
		r.freeDeadline(d)
	}
	r.releaseDeadlines()
}

// TestWorkersReuseDeadlines pins how many deadlines a run under a timeout
// builds: one per operation in flight at once. A worker keeps its deadline
// across the operations it runs, and a worker started later takes the one
// an exited worker put back. An operation's context identifies its
// deadline.
func TestWorkersReuseDeadlines(t *testing.T) {
	t.Run("sequential", func(t *testing.T) {
		// Each arrival is released once the worker of the one before has
		// exited, so one operation is in flight at a time, and never two
		// deadlines exist unless a worker failed to put its own back.
		const n = 100
		var done atomic.Int64
		var ctxs []context.Context // appended by one operation at a time
		r := newRunState(context.Background(), func(ctx context.Context) error {
			ctxs = append(ctxs, ctx)
			done.Add(1)
			return nil
		}, nil, time.Minute)
		r.sched = make([]time.Duration, n)
		give := time.Now().Add(5 * time.Second)
		for i := range n {
			r.release()
			for done.Load() <= int64(i) || !r.hasFree() {
				if time.Now().After(give) {
					t.Fatalf("operation %d: after 5s done %v, its worker's deadline back on the free list %v", i, done.Load() > int64(i), r.hasFree())
				}
				runtime.Gosched()
			}
		}
		r.wg.Wait()
		r.releaseDeadlines()
		if distinct := countDistinct(ctxs); distinct != 1 {
			t.Fatalf("%d sequential operations ran under %d deadlines, want 1", n, distinct)
		}
	})
	for _, n := range []int{2, 64} {
		t.Run(fmt.Sprintf("%d-in-flight", n), func(t *testing.T) {
			// As in TestBlockedOperationsDoNotHoldBackArrivals: every
			// operation waits until all n are in flight.
			const rate = 100000
			var inFlight atomic.Int64
			var mu sync.Mutex
			var ctxs []context.Context
			st, err := Run(context.Background(), Options{Rate: rate, Duration: time.Duration(n) * time.Second / rate, Timeout: time.Minute},
				func(ctx context.Context) error {
					mu.Lock()
					ctxs = append(ctxs, ctx)
					mu.Unlock()
					return awaitInFlight(&inFlight, n)
				})
			if err != nil || st.Dispatched != n || st.Errors != 0 {
				t.Fatalf("Run: %v; dispatched %d errors %d, want %d and 0", err, st.Dispatched, st.Errors, n)
			}
			if distinct := countDistinct(ctxs); distinct != n {
				t.Fatalf("%d operations in flight at once ran under %d deadlines, want %d", n, distinct, n)
			}
		})
	}
}

// hasFree reports whether a deadline is on the run's free list.
func (r *runState) hasFree() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.free != nil
}

// countDistinct counts the distinct contexts in ctxs.
func countDistinct(ctxs []context.Context) int {
	seen := map[context.Context]bool{}
	for _, c := range ctxs {
		seen[c] = true
	}
	return len(seen)
}

// TestOperationDeadline pins what an operation sees of Options.Timeout: one
// that overruns it finds its context's cause is context.DeadlineExceeded
// and is counted in Errors, and the next operation the same worker runs
// starts with a live context.
func TestOperationDeadline(t *testing.T) {
	var calls atomic.Int64
	var cause, stale atomic.Value
	before := runtime.NumGoroutine()
	st, err := Run(context.Background(), Options{Rate: 100, Duration: 100 * time.Millisecond, Timeout: 5 * time.Millisecond},
		func(ctx context.Context) error {
			if calls.Add(1) != 1 {
				if ctx.Err() != nil {
					stale.Store(true)
				}
				return nil
			}
			<-ctx.Done()
			cause.Store(context.Cause(ctx))
			return ctx.Err()
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := cause.Load(); got != context.DeadlineExceeded {
		t.Fatalf("overrunning operation saw cause %v, want context.DeadlineExceeded", got)
	}
	if st.Errors != 1 || st.Dispatched != st.Scheduled {
		t.Fatalf("errors %d, dispatched %d of %d; want 1 error and every arrival dispatched", st.Errors, st.Dispatched, st.Scheduled)
	}
	if stale.Load() != nil {
		t.Fatal("an operation after the overrun started with a cancelled context")
	}
	settle(t, before)
}

// TestOperationDeadlineLateFire drives a run's deadlines through many
// operations that last about as long as the timeout, so a timer fires
// during an operation, between its end and the Stop, or not at all. An
// operation whose context is cancelled sooner than the timeout after it
// took its deadline saw an earlier operation's fire: that must never
// happen.
func TestOperationDeadlineLateFire(t *testing.T) {
	const timeout = time.Millisecond
	before := runtime.NumGoroutine()
	r := newRunState(context.Background(), nil, nil, timeout)
	var dropped, reused int
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		d := r.takeDeadline()
		if d.ctx.Err() != nil && time.Since(t0) < timeout {
			t.Fatalf("operation %d started with a context cancelled before its own deadline", i)
		}
		for end := t0.Add(timeout * time.Duration(2+i%8) / 4); time.Now().Before(end); { // 0.5 to 2.25 timeouts
		}
		r.putDeadline(d)
		if r.free == nil {
			dropped++
		} else {
			reused++
		}
	}
	r.releaseDeadlines()
	if dropped == 0 || reused == 0 {
		t.Fatalf("%d deadlines dropped, %d reused: want both paths taken", dropped, reused)
	}
	settle(t, before)
}

// TestOperationDeadlineRunCancelled: cancelling the run's context while an
// operation runs under a deadline reports context.Canceled to it, not a
// deadline.
func TestOperationDeadlineRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cause atomic.Value
	var calls atomic.Int64
	before := runtime.NumGoroutine()
	_, err := Run(ctx, Options{Rate: 100, Duration: time.Second, Timeout: time.Hour},
		func(ctx context.Context) error {
			if calls.Add(1) == 3 {
				cancel()
				<-ctx.Done()
				cause.Store(context.Cause(ctx))
			}
			return ctx.Err()
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run: %v, want context.Canceled", err)
	}
	if got := cause.Load(); got != context.Canceled {
		t.Fatalf("cancelled operation saw cause %v, want context.Canceled", got)
	}
	settle(t, before)
}

// settle waits for the goroutines a run started to exit, failing after a
// second.
func settle(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("goroutines %d, %d before the run", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
