package loadgen

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
)

// The operation labels loadgen records into the metrics pipeline. OpRequest
// is the headline number: latency measured from the *intended* start, so
// queueing behind a stalled operation is charged to the requests that
// waited (the coordinated-omission guard). OpService and OpWait decompose
// it into execution time and queueing delay. All three are recorded as
// substrate-level observations: each operation is a whole workload
// execution that measures its own user-level operations into the same
// collector, so counting requests at the user level too would double-count
// Result.Throughput. Stats.Latency/Service/Wait digest these same
// observations.
const (
	OpRequest = "request"
	OpService = "request_service"
	OpWait    = "request_wait"
)

// Options configures one open-loop run.
type Options struct {
	// Rate is the mean offered load in operations per second (> 0).
	Rate float64
	// Arrival is the arrival process; nil means Constant.
	Arrival Process
	// Duration is the scheduling window (> 0). Operations scheduled inside
	// the window may complete after it; the run waits for them.
	Duration time.Duration
	// Seed derives the arrival schedule (see Schedule).
	Seed uint64
	// Rec receives every observation in the sharded metrics pipeline:
	// OpRequest, OpService and OpWait, all substrate-level (the executed
	// operations record their own user-level measurements). Nil records into
	// a shard private to the run, which only Stats reads.
	Rec *metrics.Collector

	// Now and Sleep are injectable for tests; nil means the real clock.
	// Sleep receives the run's context and must return early when it is
	// cancelled, so shutdown is never delayed by a pacing sleep.
	Now   func() time.Time
	Sleep func(context.Context, time.Duration)
}

// LatencySummary is one latency distribution digest.
type LatencySummary struct {
	Count uint64        `json:"count"`
	Mean  time.Duration `json:"mean"`
	P50   time.Duration `json:"p50"`
	P95   time.Duration `json:"p95"`
	P99   time.Duration `json:"p99"`
	Max   time.Duration `json:"max"`
}

// summarize digests the latencies observed through ref — the ref's own
// histogram, so a digest can never disagree with the op row it views.
func summarize(ref metrics.OpRef) LatencySummary {
	s := ref.Histogram()
	if s.Count() == 0 {
		return LatencySummary{}
	}
	return LatencySummary{
		Count: s.Count(),
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max(),
	}
}

// Stats is the outcome of one open-loop run: how much load was offered, how
// much the system absorbed, and what the latency looked like from the
// user's side (intended start) versus the server's side (actual start).
type Stats struct {
	// Arrival is the process name and Offered the configured mean rate.
	Arrival string  `json:"arrival"`
	Offered float64 `json:"offered"`
	// Window is the configured scheduling window; Elapsed the wall time from
	// the first intended arrival to the last completion.
	Window  time.Duration `json:"window"`
	Elapsed time.Duration `json:"elapsed"`
	// Scheduled counts the arrivals in the schedule; Dispatched the ones
	// that began executing; Skipped the ones abandoned to a cancelled
	// context; Errors the dispatched ones whose operation returned an error.
	Scheduled  int `json:"scheduled"`
	Dispatched int `json:"dispatched"`
	Skipped    int `json:"skipped,omitempty"`
	Errors     int `json:"errors,omitempty"`
	// Achieved is the completion rate actually sustained: successful
	// completions per second over the scheduling window (or over Elapsed
	// when completions overran the window). It tracks Offered while the
	// system keeps up and falls below it past the saturation knee.
	Achieved float64 `json:"achieved"`
	// Latency is measured from each operation's intended start (queueing
	// included — immune to coordinated omission); Service from its actual
	// start; Wait is the gap between the two.
	Latency LatencySummary `json:"latency"`
	Service LatencySummary `json:"service"`
	Wait    LatencySummary `json:"wait"`
}

// runState is one open-loop run's dispatch machinery, hoisted out of Run
// so that every per-operation cost is paid once at construction: the
// schedule is materialized up front, the metric handles are pre-resolved
// OpRefs, and workers are goroutines that range over one shared handoff
// channel. The steady-state dispatch path — hand an offset to a parked
// worker, execute, observe — performs zero heap allocations (asserted by
// TestDispatchSteadyStateZeroAlloc).
type runState struct {
	ctx context.Context
	op  func(context.Context) error
	now func() time.Time
	t0  time.Time

	reqRef, svcRef, waitRef metrics.OpRef

	dispatched, skipped, errs atomic.Int64
	endNs                     atomic.Int64 // latest completion, ns offset from t0

	wg sync.WaitGroup
	// ready carries intended-start offsets to workers. It is unbuffered: a
	// send succeeds only by direct handoff to a parked worker, and the
	// dispatcher spawns a new worker exactly when no idle one exists — peak
	// concurrency costs one goroutine each, steady state reuses them all.
	// Concurrency is unbounded, the pure open-loop model: dispatch never
	// waits for capacity.
	ready chan time.Duration
}

// newRunState builds the dispatch machinery for one run. now is the clock
// (t0 is read from it immediately); the three latency views are recorded
// into a substrate shard of rec, or a shard of their own when rec is nil.
func newRunState(ctx context.Context, op func(context.Context) error, rec *metrics.Collector, now func() time.Time) *runState {
	r := &runState{ctx: ctx, op: op, now: now}
	shard := rec.SubstrateShard()
	if shard == nil {
		shard = new(metrics.Shard)
	}
	r.reqRef = shard.Op(OpRequest)
	r.svcRef = shard.Op(OpService)
	r.waitRef = shard.Op(OpWait)
	r.ready = make(chan time.Duration)
	r.t0 = now()
	return r
}

// dispatch hands one intended-start offset to a worker. It spawns a worker
// only when none is parked on the handoff channel, so the op starts
// immediately without a per-operation goroutine in steady state.
func (r *runState) dispatch(off time.Duration) {
	select {
	case r.ready <- off: // direct handoff to an idle worker
	default:
		r.wg.Add(1)
		go r.worker()
		r.ready <- off
	}
}

// worker executes offsets until the schedule is exhausted.
func (r *runState) worker() {
	defer r.wg.Done()
	for off := range r.ready {
		r.execOne(off)
	}
}

// execOne runs one operation and records its three latency views. This is
// the per-operation hot path: zero allocations in steady state
// (TestDispatchSteadyStateZeroAlloc at runtime, bdvet's hotpath analyzer
// statically).
//
//bdbench:hotpath
func (r *runState) execOne(offset time.Duration) {
	if r.ctx.Err() != nil {
		r.skipped.Add(1)
		return
	}
	r.dispatched.Add(1)
	intended := r.t0.Add(offset)
	actual := r.now()
	err := runIsolated(r.ctx, r.op)
	end := r.now()

	wait := actual.Sub(intended)
	if wait < 0 {
		wait = 0
	}
	r.reqRef.Observe(end.Sub(intended))
	r.svcRef.Observe(end.Sub(actual))
	r.waitRef.Observe(wait)
	if err != nil {
		r.errs.Add(1)
	}
	for {
		cur := r.endNs.Load()
		if ns := int64(end.Sub(r.t0)); ns > cur {
			if !r.endNs.CompareAndSwap(cur, ns) {
				continue
			}
		}
		break
	}
}

// Run offers the configured load to op: it materializes the arrival
// schedule, dispatches each operation at its intended start time — never
// waiting for earlier completions — and waits for every dispatched
// operation to finish. Operation errors and panics are counted, not fatal;
// the error return is reserved for an invalid Options or a context
// cancelled before the window completes.
func Run(ctx context.Context, opts Options, op func(context.Context) error) (Stats, error) {
	if opts.Rate <= 0 {
		return Stats{}, fmt.Errorf("loadgen: rate must be positive, got %g", opts.Rate)
	}
	if opts.Duration <= 0 {
		return Stats{}, fmt.Errorf("loadgen: duration must be positive, got %v", opts.Duration)
	}
	proc := opts.Arrival
	if proc == nil {
		proc = Constant{}
	}
	now := opts.Now
	if now == nil {
		now = time.Now //bdvet:allow detnondet -- production default for the Options.Now clock seam; determinism tests inject a virtual clock
	}

	sched := Schedule(proc, opts.Rate, opts.Duration, opts.Seed)
	st := Stats{
		Arrival:   proc.Name(),
		Offered:   opts.Rate,
		Window:    opts.Duration,
		Scheduled: len(sched),
	}

	r := newRunState(ctx, op, opts.Rec, now)

	// The dispatcher walks the precomputed schedule on the clock. It reads
	// nothing from completions — that independence is what makes the loop
	// open. One pacing timer is reused across every sleep, so pacing
	// produces no per-arrival garbage and honors cancellation.
	var timer *time.Timer
	cancelled := false
	for _, off := range sched {
		if ctx.Err() != nil {
			r.skipped.Add(1)
			cancelled = true
			continue
		}
		if wait := r.t0.Add(off).Sub(now()); wait > 0 {
			if opts.Sleep != nil {
				opts.Sleep(ctx, wait)
			} else {
				timer = sleepContext(ctx, timer, wait)
			}
		}
		r.dispatch(off)
	}
	close(r.ready)
	r.wg.Wait()

	st.Dispatched = int(r.dispatched.Load())
	st.Skipped = int(r.skipped.Load())
	st.Errors = int(r.errs.Load())
	st.Elapsed = time.Duration(r.endNs.Load())
	if st.Elapsed <= 0 {
		st.Elapsed = now().Sub(r.t0)
	}
	if span := max(st.Elapsed, st.Window); span > 0 {
		st.Achieved = float64(st.Dispatched-st.Errors) / span.Seconds()
	}
	st.Latency = summarize(r.reqRef)
	st.Service = summarize(r.svcRef)
	st.Wait = summarize(r.waitRef)
	if cancelled {
		return st, fmt.Errorf("loadgen: cancelled after %d/%d operations: %w",
			st.Dispatched, st.Scheduled, ctx.Err())
	}
	return st, nil
}

// runIsolated invokes op with panic isolation, so one exploding operation
// is an error in the stats rather than a crashed load generator.
func runIsolated(ctx context.Context, op func(context.Context) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("loadgen: operation panicked: %v", r)
		}
	}()
	return op(ctx)
}

// sleepContext pauses for d or until ctx is cancelled, whichever comes
// first — a pacing sleep must never delay shutdown. The timer is reused
// across calls (pass nil on the first, the return value thereafter), so a
// high-rate dispatch loop produces no per-sleep timer garbage. Requires the
// go1.23+ timer semantics go.mod declares: Reset without draining is safe.
func sleepContext(ctx context.Context, timer *time.Timer, d time.Duration) *time.Timer {
	if timer == nil {
		timer = time.NewTimer(d)
	} else {
		timer.Reset(d)
	}
	select {
	case <-timer.C:
	case <-ctx.Done():
		timer.Stop()
	}
	return timer
}
