package loadgen

import (
	"context"
	"errors"
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
// recording. The generator itself stalls once — its first pacing sleep
// returns 80ms late on the virtual clock — so every arrival scheduled inside
// the stall is dispatched after its intended start. A service-time view sees
// only instant operations: the delay vanishes. The intended-start view must
// charge it to every late request.
func TestCoordinatedOmissionGuard(t *testing.T) {
	const stall = 80 * time.Millisecond
	var clock atomic.Int64 // nanoseconds since the virtual epoch
	base := time.Unix(1000, 0)
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }
	stalled := false // read and written by the dispatcher goroutine only
	sleep := func(_ context.Context, d time.Duration) {
		if !stalled {
			stalled = true
			d += stall
		}
		clock.Add(int64(d))
	}
	st, err := Run(context.Background(), Options{
		Rate:     200, // 5ms apart
		Duration: 150 * time.Millisecond,
		Now:      now, Sleep: sleep,
	}, func(context.Context) error { return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Dispatched != st.Scheduled {
		t.Fatalf("dispatched %d of %d", st.Dispatched, st.Scheduled)
	}
	// The service view is blind to the stall: no operation took any time.
	if st.Service.Max != 0 {
		t.Fatalf("service max %v, want 0 on a clock only the dispatcher moves", st.Service.Max)
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
	c.Start()
	st, err := Run(context.Background(), Options{
		Rate: 300, Duration: 100 * time.Millisecond, Rec: c,
	}, func(context.Context) error {
		// The operation measures itself at the user level, as a real
		// workload execution does.
		c.ObserveLatency("work", time.Microsecond)
		return nil
	})
	c.Stop()
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

// TestRunVirtualClock drives the pacer on an injected clock and observes
// the dispatcher's sleeps: with instant operations it must sleep exactly
// the schedule's gaps — the dispatcher paces on the clock, never on
// completions. (The sleep hook is only ever called by the dispatcher
// goroutine, so the slice needs no lock.)
func TestRunVirtualClock(t *testing.T) {
	var clock atomic.Int64 // nanoseconds since the virtual epoch
	base := time.Unix(1000, 0)
	now := func() time.Time { return base.Add(time.Duration(clock.Load())) }
	var slept []time.Duration
	sleep := func(_ context.Context, d time.Duration) { clock.Add(int64(d)); slept = append(slept, d) }
	st, err := Run(context.Background(), Options{
		Rate: 10, Duration: time.Second,
		Now: now, Sleep: sleep,
	}, func(context.Context) error { return nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.Scheduled != 10 || st.Dispatched != 10 {
		t.Fatalf("scheduled %d dispatched %d, want 10/10", st.Scheduled, st.Dispatched)
	}
	// First arrival is at offset 0 (no sleep); the other nine are 100ms
	// apart on an otherwise idle virtual clock.
	if len(slept) != 9 {
		t.Fatalf("dispatcher slept %d times, want 9 (%v)", len(slept), slept)
	}
	for i, d := range slept {
		if d != 100*time.Millisecond {
			t.Fatalf("sleep %d = %v, want 100ms", i, d)
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

// TestSleepContextTimerReuse exercises sleepContext directly: the timer
// returned from one call must be reusable by the next, and a cancelled
// context must cut a long sleep short.
func TestSleepContextTimerReuse(t *testing.T) {
	timer := sleepContext(context.Background(), nil, time.Millisecond)
	if timer == nil {
		t.Fatal("sleepContext returned a nil timer")
	}
	timer2 := sleepContext(context.Background(), timer, time.Millisecond)
	if timer2 != timer {
		t.Fatal("sleepContext did not reuse the timer")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	sleepContext(ctx, timer, time.Minute)
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("cancelled sleep took %v", elapsed)
	}
}

// TestDispatchSteadyStateZeroAlloc asserts the per-operation hot path —
// execOne through the histograms and the pre-resolved OpRefs — allocates
// nothing once the run state exists. This is the loadgen half of the
// zero-allocation contract; BenchmarkDispatchSteadyState prices the same
// path.
func TestDispatchSteadyStateZeroAlloc(t *testing.T) {
	c := metrics.NewCollector("wl")
	op := func(context.Context) error { return nil }
	base := time.Unix(1000, 0)
	now := func() time.Time { return base }
	r := newRunState(context.Background(), op, c, now)
	r.execOne(0) // warm the substrate labels
	allocs := testing.AllocsPerRun(1000, func() {
		r.execOne(time.Millisecond)
	})
	if raceflag.Enabled {
		t.Skipf("allocation counts not asserted under -race (measured %.1f)", allocs)
	}
	if allocs != 0 {
		t.Errorf("dispatch steady state: %.1f allocs/op, want 0", allocs)
	}
}
