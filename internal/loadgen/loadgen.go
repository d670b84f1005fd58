package loadgen

import (
	"context"
	"fmt"
	"math"
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
	// Timeout, when positive, bounds each operation: its context is then
	// cancelled with cause context.DeadlineExceeded. Operations re-arm
	// timers the run keeps rather than build a context each, so
	// ctx.Deadline() reports no time inside an operation. Zero means no
	// deadline.
	Timeout time.Duration
	// Rec receives every observation in the sharded metrics pipeline:
	// OpRequest, OpService and OpWait, all substrate-level (the executed
	// operations record their own user-level measurements). Nil records into
	// a shard private to the run, which only Stats reads. Rec's clock is the
	// run's: the dispatcher paces on it (Collector.SleepUntil) and every
	// start, end and Elapsed reads it. Nil is the wall clock.
	Rec *metrics.Collector
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
	// Window is the configured scheduling window; Elapsed the time on the
	// run's clock from the first intended arrival to the last completion.
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
	// start; Wait is the gap between the two, never negative, and Latency
	// is Service plus Wait.
	Latency LatencySummary `json:"latency"`
	Service LatencySummary `json:"service"`
	Wait    LatencySummary `json:"wait"`
}

// runState is one open-loop run's dispatch machinery, hoisted out of Run
// so that every per-operation cost is paid once at construction: the
// schedule is materialized up front, the metric handles are pre-resolved
// OpRefs, and the worker body is a func value bound once. Workers claim
// the arrivals the dispatcher releases by index straight from the
// schedule: nothing is copied or sent on a channel, and no worker parks.
// Neither the per-operation path — claim, execute, observe — nor starting
// a worker allocates (TestDispatchSteadyStateZeroAlloc,
// TestSaturatedRunAllocatesPerRunNotPerArrival), and the per-operation
// path takes no lock: the deadline free list's mutex is taken at a
// worker's first timed operation and at its exit.
type runState struct {
	ctx     context.Context
	op      func(context.Context) error
	clock   *metrics.Collector // the run's clock; nil is the wall clock
	t0      time.Time
	timeout time.Duration

	reqRef, svcRef, waitRef metrics.OpRef

	dispatched, skipped, errs atomic.Int64
	endNs                     atomic.Int64 // latest completion, ns offset from t0

	// sched[:released] are the arrivals the dispatcher has released and
	// sched[:claimed] the ones workers have taken. idle counts the workers
	// alive and not inside exec. A worker is started only when none is
	// idle, so concurrency is unbounded, the pure open-loop model: an
	// arrival never waits behind a blocked operation, and dispatch never
	// waits for capacity.
	sched             []time.Duration
	released, claimed atomic.Int64
	idle              atomic.Int64
	wg                sync.WaitGroup
	work              func() // r.worker, bound once so that a start allocates no closure

	mu   sync.Mutex // guards free
	free *deadline  // the deadlines no worker holds
}

// newRunState builds the dispatch machinery for one run. rec's clock is the
// run's (t0 is read from it immediately), and the three latency views are
// recorded into a substrate shard of rec, or a shard of their own when rec
// is nil; timeout is Options.Timeout. The caller sets sched before
// releasing.
func newRunState(ctx context.Context, op func(context.Context) error, rec *metrics.Collector, timeout time.Duration) *runState {
	r := &runState{ctx: ctx, op: op, clock: rec, timeout: timeout}
	shard := rec.SubstrateShard()
	if shard == nil {
		shard = new(metrics.Shard)
	}
	r.reqRef = shard.Op(OpRequest)
	r.svcRef = shard.Op(OpService)
	r.waitRef = shard.Op(OpWait)
	r.work = r.worker
	r.t0 = rec.Now()
	return r
}

// release makes the next arrival of the schedule claimable. It starts a
// worker only when none is idle. The release comes before the check, and
// an idle worker stops being idle before its last look (see worker); the
// atomics are sequentially consistent, so either that worker sees the
// arrival or release sees no idle worker.
func (r *runState) release() {
	r.released.Add(1)
	if r.idle.Load() == 0 {
		r.start()
	}
}

// start begins one worker, idle from the start.
func (r *runState) start() {
	r.idle.Add(1)
	r.wg.Add(1)
	go r.work()
}

// worker runs released arrivals until it finds none unclaimed. A claim
// that leaves no worker idle while more arrivals wait starts one more, so
// the next arrival never waits for this one's operation. A worker that
// finds nothing to claim gives up being idle, then looks once more before
// it exits.
//
// Under a timeout a worker holds one deadline from its first operation to
// its exit, when it goes back on the run's free list; exec arms it for
// each operation and disarms it after. The worker takes it while still
// idle: one held up there, on the list's lock or parked by the
// GC to assist for the deadline it builds, must not make the dispatcher
// start another, which would build one too and could be held up the same
// way (docs/PERFORMANCE.md, "No lock on the open-loop operation path").
func (r *runState) worker() {
	defer r.wg.Done()
	var d *deadline
	for {
		i := r.claim()
		if i < 0 {
			r.idle.Add(-1)
			if !r.pending() {
				if d != nil {
					r.freeDeadline(d)
				}
				return
			}
			r.idle.Add(1)
			continue
		}
		if d == nil && r.timeout > 0 {
			d = r.holdDeadline()
		}
		if r.idle.Add(-1) == 0 && r.pending() {
			r.start()
		}
		d = r.exec(r.sched[i], d)
		r.idle.Add(1)
	}
}

// claim takes the earliest released arrival no worker has taken, or
// returns -1 when there is none.
func (r *runState) claim() int64 {
	for c := r.claimed.Load(); c < r.released.Load(); c = r.claimed.Load() {
		if r.claimed.CompareAndSwap(c, c+1) {
			return c
		}
	}
	return -1
}

// pending reports whether a released arrival is still unclaimed.
func (r *runState) pending() bool { return r.claimed.Load() < r.released.Load() }

// exec runs one operation and records its three latency views: service
// from its actual start, wait from its intended start to its actual one
// (never negative) and request as their sum, which on the wall clock is
// the time from the intended start, since no pacing sleep ends early.
// Under a timeout the operation runs under d, the disarmed deadline the
// calling worker holds (nil without a timeout), which exec alone arms:
// right before the operation, so no delay of the worker's before that can
// spend it. exec returns d disarmed for the worker's next operation, or nil when
// its timer fired. This is the per-operation hot path: no allocation and
// no lock (TestDispatchSteadyStateZeroAlloc at runtime, bdvet's hotpath
// analyzer statically).
//
//bdbench:hotpath
func (r *runState) exec(offset time.Duration, d *deadline) *deadline {
	if r.ctx.Err() != nil {
		r.skipped.Add(1)
		return d
	}
	r.dispatched.Add(1)
	intended := r.t0.Add(offset)
	actual := r.clock.Now()
	ctx := r.ctx
	if d != nil {
		d.timer.Reset(r.timeout)
		ctx = d.ctx
	}
	err := runIsolated(ctx, r.op)
	if d != nil && !d.disarm() {
		d = nil
	}
	end := r.clock.Now()

	service, wait := end.Sub(actual), max(actual.Sub(intended), 0)
	r.reqRef.Observe(service + wait)
	r.svcRef.Observe(service)
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
	return d
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

	sched := Schedule(proc, opts.Rate, opts.Duration, opts.Seed)
	st := Stats{
		Arrival:   proc.Name(),
		Offered:   opts.Rate,
		Window:    opts.Duration,
		Scheduled: len(sched),
	}

	r := newRunState(ctx, op, opts.Rec, opts.Timeout)
	r.sched = sched

	// The dispatcher walks the precomputed schedule on the run's clock. It
	// reads nothing from completions — that independence is what makes the
	// loop open. One pacing timer is reused across every sleep, so pacing
	// produces no per-arrival garbage and honors cancellation; under an
	// injected clock the sleep returns at once and every arrival is
	// released without waiting. Once the context is cancelled no further
	// arrival is released, so the released ones stay a prefix of the
	// schedule.
	var timer *time.Timer
	cancelled := false
	for _, off := range sched {
		if ctx.Err() != nil {
			r.skipped.Add(1)
			cancelled = true
			continue
		}
		// A sleep cut short by a cancel still releases its arrival, which
		// exec then counts as skipped, so the error needs no handling here.
		timer, _ = r.clock.SleepUntil(ctx, r.t0.Add(off), timer)
		r.release()
	}
	r.wg.Wait()
	r.releaseDeadlines()

	st.Dispatched = int(r.dispatched.Load())
	st.Skipped = int(r.skipped.Load())
	st.Errors = int(r.errs.Load())
	st.Elapsed = time.Duration(r.endNs.Load())
	if st.Elapsed <= 0 {
		st.Elapsed = r.clock.Now().Sub(r.t0)
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

// deadline bounds one operation at a time: a child of the run's context
// and a timer that cancels it with cause context.DeadlineExceeded. A worker
// takes one from the run's free list at its first operation, holds it
// across the operations it runs and puts it back when it exits, so a run
// builds as many as operations ran at once — not one per operation, nor
// one per worker the dispatcher started. Its timer runs only inside exec;
// off the list or on it, a deadline is disarmed. next links the free list.
type deadline struct {
	ctx    context.Context
	cancel context.CancelCauseFunc
	timer  *time.Timer
	next   *deadline
}

// holdDeadline returns a disarmed deadline for a worker to hold: a free
// one, or a new one when every one built so far is held.
//
//bdbench:hotpath
func (r *runState) holdDeadline() *deadline {
	r.mu.Lock()
	d := r.free
	if d != nil {
		r.free = d.next
	}
	r.mu.Unlock()
	if d == nil {
		return r.newDeadline()
	}
	return d
}

// newDeadline builds a deadline, disarmed: its timer is set for a time it
// never reaches and stopped at once.
func (r *runState) newDeadline() *deadline {
	ctx, cancel := context.WithCancelCause(r.ctx)
	timer := time.AfterFunc(math.MaxInt64, func() { cancel(context.DeadlineExceeded) })
	timer.Stop()
	return &deadline{ctx: ctx, cancel: cancel, timer: timer}
}

// disarm ends an operation's deadline and reports whether d can bound
// another. A timer that could not be stopped fired or is firing: its
// context is spent, so it is cancelled here, which detaches it from the
// run's context at once, and d must be dropped. A late fire therefore
// never reaches a later operation.
//
//bdbench:hotpath
func (d *deadline) disarm() bool {
	if d.timer.Stop() {
		return true
	}
	d.cancel(context.DeadlineExceeded)
	return false
}

// freeDeadline puts a disarmed deadline back on the free list.
func (r *runState) freeDeadline(d *deadline) {
	r.mu.Lock()
	d.next, r.free = r.free, d
	r.mu.Unlock()
}

// releaseDeadlines stops and cancels every deadline once no operation
// runs, so none stays registered on the run's context.
func (r *runState) releaseDeadlines() {
	for d := r.free; d != nil; d = d.next {
		d.timer.Stop()
		d.cancel(context.Canceled)
	}
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
