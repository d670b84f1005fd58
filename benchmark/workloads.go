package main

import (
	"context"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/workloads/oltp"
)

// workloadDef is how the harness runs one of BENCHMARK.json's workloads.
type workloadDef struct {
	// openLoop workloads offer load on a schedule for the whole measuring
	// time; closed-loop ones repeat a fixed piece of work with one client.
	openLoop bool
	// new builds the runner, and does once what a run does once: the
	// reference outputs its repetitions are checked against.
	new func(ctx context.Context, h *harness) (runner, error)
}

// cost is what tracing is charged against: wall-clock for a closed loop,
// whose repetition ends when the work does, and CPU per operation for an
// open loop, whose window lasts as long as it is told to.
func (d workloadDef) cost(r repResult) float64 {
	if d.openLoop {
		return float64(r.cpu) / r.cpuOps
	}
	return r.wall.Seconds()
}

// runners maps each workload BENCHMARK.json names to the code that runs it.
var runners = map[string]workloadDef{
	"batch_mix": {new: func(ctx context.Context, h *harness) (runner, error) {
		return newClosedScenario(ctx, h, "batch_mix", "batch_mix", opsAreExecutions, false)
	}},
	"oltp_point": {new: func(ctx context.Context, h *harness) (runner, error) {
		return newClosedScenario(ctx, h, "oltp_point", "oltp_point", opsAreUserOps, false)
	}},
	"oltp_scan": {new: func(ctx context.Context, h *harness) (runner, error) {
		r, err := newClosedScenario(ctx, h, "oltp_scan", "oltp_scan", opsAreUserOps, false)
		if err != nil {
			return nil, err
		}
		// The registered ycsb-E does 10 000 operations, over two seconds a
		// repetition. The same workload with a quarter of them leaves room
		// for enough repetitions; its load phase and scan lengths are
		// unchanged.
		e := oltp.WorkloadE
		e.OpsPerScale = scanOps
		reg := bdbench.NewRegistry()
		if err := reg.RegisterWorkload(e); err != nil {
			return nil, err
		}
		r.unit.reg = reg
		return r, nil
	}},
	"openloop_noop":   {openLoop: true, new: newNoop},
	"openloop_served": {openLoop: true, new: newServed},
	"datagen_corpora": {new: newDatagen},
	"cluster_loopback": {new: func(ctx context.Context, h *harness) (runner, error) {
		return newClosedScenario(ctx, h, "cluster_loopback", "oltp_point", opsAreUserOps, true)
	}},
}

// opsUnit says what one operation of a closed-loop scenario workload is.
type opsUnit int

const (
	// opsAreExecutions counts whole workload executions, and takes each
	// execution's elapsed time as its latency.
	opsAreExecutions opsUnit = iota
	// opsAreUserOps counts the user-level operations the workloads record,
	// and takes the captured per-operation samples as the latencies.
	opsAreUserOps
)

// closedScenario repeats one spec with a single client: the next
// repetition starts when the previous one has returned.
type closedScenario struct {
	h       *harness
	unit    scenarioUnit
	rawSpec []byte
	ops     opsUnit
	cluster bool
	// reference holds the facts of the single-process run a coordinated run
	// must reproduce.
	reference map[string]string
	// last is the latest repetition, whose results shape the wire probes.
	last *scenarioRun
}

// scanOps is how many operations one execution of oltp_scan's YCSB E does.
const scanOps = 2500

func newClosedScenario(ctx context.Context, h *harness, name, specName string, ops opsUnit, cluster bool) (*closedScenario, error) {
	spec, raw, err := loadSpec(specName, h.opts)
	if err != nil {
		return nil, err
	}
	c := &closedScenario{
		h:       h,
		unit:    scenarioUnit{h: h, name: name, spec: spec, sampleCap: bdbench.DefaultSampleCapacity},
		rawSpec: raw,
		ops:     ops,
		cluster: cluster,
	}
	if cluster {
		// Run the spec in this process alone: the reference the coordinated
		// repetitions are checked against.
		ref, err := c.unit.run(ctx, nil, 0)
		if err != nil {
			return nil, err
		}
		c.reference = artifactFacts(ref)
	}
	return c, nil
}

func (c *closedScenario) setUp() error {
	c.close()
	if c.cluster {
		c.unit.agents = newLoopback(c.h.rec, 2)
	}
	return nil
}

func (c *closedScenario) warmUp(ctx context.Context) error {
	_, err := c.unit.run(ctx, nil, 0)
	return err
}

func (c *closedScenario) close() {
	if c.unit.agents != nil {
		c.unit.agents.close()
		c.unit.agents = nil
	}
}

func (c *closedScenario) rep(ctx context.Context, i int) (repResult, error) {
	run, err := c.unit.run(ctx, c.h.rec, i)
	if err != nil {
		return repResult{}, err
	}
	c.last = run
	c.unit.checkOutcome(run)
	var attempted, failed int64
	var lat []int64
	switch c.ops {
	case opsAreExecutions:
		attempted, failed = int64(len(run.out.Results)), int64(run.out.Failures)
		for _, r := range run.out.Results {
			lat = append(lat, int64(r.Result.Elapsed))
		}
	case opsAreUserOps:
		for _, r := range run.out.Results {
			n := userOps(r.Result)
			attempted += n
			if r.Err != nil {
				failed += n
			}
		}
		lat = latenciesOf(run.art, func(s runstore.Series) bool { return !s.Substrate })
		if int64(len(lat)) != attempted {
			c.h.problem("%s: %d user-level operations recorded, %d samples captured", c.unit.name, attempted, len(lat))
		}
	}
	rr := closedResult(run.wall, run.cpu, attempted, failed, lat)
	rr.facts = artifactFacts(run)

	if c.cluster {
		for k, want := range c.reference {
			if got := rr.facts[k]; got != want {
				c.h.problem("%s: coordinated run has %s = %s, the single-process run %s", c.unit.name, k, got, want)
			}
		}
		if c.h.rec != nil {
			c.h.ledger.add("cluster.wire_bytes", float64(c.unit.agents.bytes.Load()))
			c.h.ledger.add("cluster.retries", float64(c.unit.agents.requests.Load()-int64(len(c.unit.agents.servers))))
		}
	}
	if c.h.rec != nil {
		if err := c.unit.trace(ctx, i, run); err != nil {
			return repResult{}, err
		}
	}
	return rr, nil
}

func (c *closedScenario) probe(ctx context.Context) error {
	if err := c.unit.planProbe(c.rawSpec); err != nil {
		return err
	}
	if err := metricsProbes(c.h); err != nil {
		return err
	}
	switch c.unit.name {
	case "batch_mix":
		return mapreduceProbes(c.h)
	case "oltp_point":
		return nosqlPointProbes(c.h)
	case "oltp_scan":
		return nosqlScanProbes(c.h)
	case "cluster_loopback":
		return wireProbes(c.h, c.last)
	}
	return nil
}
