package main

import (
	"context"
	"fmt"
	"time"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/workloads"
)

// An open-loop repetition divides its window h.window as follows; a set-up
// warms up for warmShare of it.
const (
	warmShare = 1.0 / 24
	// pacedShare is the paced phase of openloop_noop; each of its bursts
	// offers burstShare worth of arrivals.
	pacedShare = 0.6
	burstShare = 1.0 / 120
	bursts     = 6
)

// share returns that part of the window.
func (h *harness) share(s float64) time.Duration {
	return time.Duration(s * float64(h.window))
}

// forWindow returns the open-loop unit offering load for d, capturing every
// request: the buffers hold the mean count plus a fifth and a thousand, far
// beyond what a Poisson draw strays. The capacity is per operation cell, and
// every execution of a real workload builds cells of its own, so the
// default capacity of 65536 would cost gigabytes over one window.
func (u scenarioUnit) forWindow(d time.Duration) scenarioUnit {
	u.spec.Duration = bdbench.Duration(d)
	u.sampleCap = int(1.2*u.spec.Rate*d.Seconds()) + 1024
	return u
}

// loadOf returns the open-loop digest of a one-entry run.
func loadOf(run *scenarioRun) (*bdbench.LoadStats, error) {
	if len(run.out.Results) != 1 || run.out.Results[0].Load == nil {
		return nil, fmt.Errorf("expected one open-loop result, got %d", len(run.out.Results))
	}
	return run.out.Results[0].Load, nil
}

// openResult fills a repResult from one open-loop window: latency is
// measured from each request's intended start, and a request that failed
// or was never dispatched counts as missed.
func openResult(run *scenarioRun, st *bdbench.LoadStats) repResult {
	done := float64(st.Dispatched - st.Errors)
	span := max(st.Elapsed, st.Window)
	return repResult{
		wall:      run.wall,
		attempted: int64(st.Scheduled),
		failed:    int64(st.Scheduled) - int64(done),
		opsDone:   done,
		opsTime:   span,
		cpu:       run.cpu,
		cpuOps:    done,
		latencies: latenciesOf(run.art, func(s runstore.Series) bool { return s.Op == loadgen.OpRequest }),
		// Offered is what the schedule holds over the window, not the mean
		// rate it was drawn around, so a Poisson draw that came out short is
		// not read as a shortfall.
		achieved: done / float64(st.Scheduled) * st.Window.Seconds() / span.Seconds(),
	}
}

// loadLedger adds one window's loadgen digest to the ledger.
func loadLedger(l ledger, run *scenarioRun, st *bdbench.LoadStats) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	wait := sortedLatenciesOf(run.art, func(s runstore.Series) bool { return s.Op == loadgen.OpWait })
	svc := sortedLatenciesOf(run.art, func(s runstore.Series) bool { return s.Op == loadgen.OpService })
	req := sortedLatenciesOf(run.art, func(s runstore.Series) bool { return s.Op == loadgen.OpRequest })
	l.add("loadgen.wait_p50_us", quantileNs(wait, 0.50))
	l.add("loadgen.wait_p95_us", quantileNs(wait, 0.95))
	l.add("loadgen.wait_p99_us", quantileNs(wait, 0.99))
	l.add("loadgen.wait_max_ms", us(st.Wait.Max)/1e3)
	l.add("loadgen.service_p50_us", quantileNs(svc, 0.50))
	l.add("loadgen.service_p95_us", quantileNs(svc, 0.95))
	l.add("loadgen.request_p99_ms", quantileNs(req, 0.99)/1e3)
	l.add("loadgen.scheduled", float64(st.Scheduled))
	l.add("loadgen.dispatched", float64(st.Dispatched))
	l.add("loadgen.skipped", float64(st.Skipped))
	l.add("loadgen.errors", float64(st.Errors))
}

// window runs one open-loop window of the unit as repetition i: the timed
// call, the checks, and in a traced run the ledger.
func (u scenarioUnit) window(ctx context.Context, i int) (repResult, error) {
	h := u.h
	run, err := u.run(ctx, h.rec, i)
	if err != nil {
		return repResult{}, err
	}
	u.checkOutcome(run)
	st, err := loadOf(run)
	if err != nil {
		return repResult{}, err
	}
	rr := openResult(run, st)
	rr.facts = artifactFacts(run)
	if h.rec != nil {
		if err := u.trace(ctx, i, run); err != nil {
			return repResult{}, err
		}
		loadLedger(h.ledger, run, st)
	}
	return rr, nil
}

// served is built-in grep under a Poisson open loop.
type served struct {
	h       *harness
	unit    scenarioUnit
	rawSpec []byte
}

func newServed(_ context.Context, h *harness) (runner, error) {
	spec, raw, err := loadSpec("openloop_served", h.opts)
	if err != nil {
		return nil, err
	}
	return &served{
		h:       h,
		unit:    scenarioUnit{h: h, name: "openloop_served", spec: spec},
		rawSpec: raw,
	}, nil
}

func (s *served) setUp() error { return nil }

func (s *served) warmUp(ctx context.Context) error {
	_, err := s.unit.forWindow(s.h.share(warmShare)).run(ctx, nil, 0)
	return err
}

func (s *served) close() {}

func (s *served) rep(ctx context.Context, i int) (repResult, error) {
	return s.unit.forWindow(s.h.window).window(ctx, i)
}

func (s *served) probe(ctx context.Context) error {
	if err := s.unit.planProbe(s.rawSpec); err != nil {
		return err
	}
	if err := metricsProbes(s.h); err != nil {
		return err
	}
	return scheduleProbe(s.h, loadgen.Poisson{}, s.unit.spec.Rate, s.h.window)
}

// noopWorkload is a workload whose body does nothing, so that whatever an
// open loop over it costs is the harness's.
type noopWorkload struct{}

func (noopWorkload) Name() string                 { return "noop" }
func (noopWorkload) Category() workloads.Category { return workloads.Online }
func (noopWorkload) Domain() string               { return "benchmark" }
func (noopWorkload) StackTypes() []stacks.Type    { return nil }
func (noopWorkload) Run(context.Context, workloads.Params, *metrics.Collector) error {
	return nil
}

// The open loop over the no-op body has two phases. The paced phase offers
// a rate the dispatcher can hold, and yields lateness, CPU per operation
// and the achieved ratio. The saturated phase offers a fixed number of
// bursts far above the dispatch ceiling, and yields the ceiling.
type noop struct {
	h         *harness
	paced     scenarioUnit
	saturated scenarioUnit
	rawSpec   []byte
}

func newNoop(_ context.Context, h *harness) (runner, error) {
	paced, raw, err := loadSpec("openloop_noop", h.opts)
	if err != nil {
		return nil, err
	}
	saturated, _, err := loadSpec("openloop_noop_saturated", h.opts)
	if err != nil {
		return nil, err
	}
	return &noop{
		h:         h,
		paced:     scenarioUnit{h: h, name: "openloop_noop", spec: paced},
		saturated: scenarioUnit{h: h, name: "openloop_noop_saturated", spec: saturated},
		rawSpec:   raw,
	}, nil
}

func (n *noop) setUp() error {
	reg := bdbench.NewRegistry()
	if err := reg.RegisterWorkload(noopWorkload{}); err != nil {
		return err
	}
	n.paced.reg, n.saturated.reg = reg, reg
	return nil
}

func (n *noop) warmUp(ctx context.Context) error {
	if _, err := n.paced.forWindow(n.h.share(warmShare)).run(ctx, nil, 0); err != nil {
		return err
	}
	_, err := n.burst().run(ctx, nil, 0)
	return err
}

func (n *noop) close() {}

// burst returns the saturated unit sized to the window. It captures no
// samples: at the ceiling the capture buffers would be most of the cost.
func (n *noop) burst() scenarioUnit {
	u := n.saturated
	u.spec.Duration = bdbench.Duration(n.h.share(burstShare))
	return u
}

func (n *noop) rep(ctx context.Context, i int) (repResult, error) {
	start := time.Now()
	rr, err := n.paced.forWindow(n.h.share(pacedShare)).window(ctx, i)
	if err != nil {
		return repResult{}, err
	}

	// The ceiling replaces the paced phase's throughput as run.ops_per_s.
	// The bursts are never traced: a span per operation at the ceiling
	// would measure the recorder.
	rr.opsDone, rr.opsTime = 0, 0
	unit := n.burst()
	for b := 0; b < bursts; b++ {
		burst, err := unit.run(ctx, nil, i)
		if err != nil {
			return repResult{}, err
		}
		unit.checkOutcome(burst)
		bst, err := loadOf(burst)
		if err != nil {
			return repResult{}, err
		}
		rr.attempted += int64(bst.Scheduled)
		rr.failed += int64(bst.Scheduled - bst.Dispatched + bst.Errors)
		rr.facts["scheduled.burst"] = fmt.Sprint(bst.Scheduled)
		rr.opsDone += float64(bst.Dispatched - bst.Errors)
		rr.opsTime += bst.Elapsed
	}
	rr.wall = time.Since(start)
	return rr, nil
}

func (n *noop) probe(ctx context.Context) error {
	if err := n.paced.planProbe(n.rawSpec); err != nil {
		return err
	}
	if err := metricsProbes(n.h); err != nil {
		return err
	}
	if err := scheduleProbe(n.h, loadgen.Poisson{}, n.paced.spec.Rate, n.h.share(pacedShare)); err != nil {
		return err
	}
	return dispatchProbe(ctx, n.h)
}
