package opcompose

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/workloads"
)

// TestPacedPhaseStopsAtTheDeadline: a phase paced at 10 ops/s over 100 ops
// would take ten seconds; a 500 ms deadline stops it within 50 ms, because
// the pacing sleep is the context-aware one.
func TestPacedPhaseStopsAtTheDeadline(t *testing.T) {
	w, err := Compile(Pattern{Name: "paced-scan", Ops: []OpWeight{{Op: "scan"}}, OpsPerScale: 100,
		Phases: []Phase{{Name: "slow", Rate: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
	defer cancel()
	deadline, _ := ctx.Deadline()
	err = w.Run(ctx, workloads.Params{Seed: 1, Scale: 1, Workers: 2, DatagenWorkers: 1}, metrics.NewCollector(w.Name()))
	if late := time.Since(deadline); late > 50*time.Millisecond {
		t.Fatalf("paced phase returned %v after its deadline, want within 50ms", late)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("paced phase returned %v, want the deadline", err)
	}
}

// TestPacedLatencyRunsFromTheIntendedTime: an operation that takes 2 ms in
// a phase paced at 1 000 ops/s falls further behind its schedule with every
// operation, and the recorded latency shows that backlog instead of the
// service time alone.
func TestPacedLatencyRunsFromTheIntendedTime(t *testing.T) {
	var service []time.Duration
	saved := primitives
	t.Cleanup(func() { primitives = saved })
	primitives = append(saved[:len(saved):len(saved)], Operation{Name: "test-slow", Apply: func(*OpContext) uint64 {
		t0 := time.Now()
		time.Sleep(2 * time.Millisecond)
		service = append(service, time.Since(t0))
		return 0
	}})
	w, err := Compile(Pattern{Name: "paced-slow", Ops: []OpWeight{{Op: "test-slow"}}, OpsPerScale: 100,
		Phases: []Phase{{Name: "paced", Rate: 1000}}})
	if err != nil {
		t.Fatal(err)
	}
	c := metrics.NewCollector(w.Name())
	if err := w.Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 1, DatagenWorkers: 1}, c); err != nil {
		t.Fatal(err)
	}
	slices.Sort(service)
	median := service[len(service)/2]
	for _, op := range c.Snapshot().Ops {
		if op.Op == "paced/test-slow" {
			if op.P95 <= 10*median {
				t.Fatalf("p95 %v over a %v service time: the backlog behind the pace is not recorded", op.P95, median)
			}
			return
		}
	}
	t.Fatal("no paced/test-slow latency recorded")
}

// TestPacedPhaseUnderAFrozenClock: under an injected clock a paced phase
// sleeps no wall time (at 5 ops/s its 360 operations would pace 72 s), and
// pacing changes no output: the digest and the counts are the unpaced
// pattern's.
func TestPacedPhaseUnderAFrozenClock(t *testing.T) {
	params := workloads.Params{Seed: 2014, Scale: 1, Workers: 3, DatagenWorkers: 2}
	unpaced := runComposed(t, params)
	p := testPattern()
	p.Phases[1].Rate = 5
	w, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	c := metrics.NewCollector(w.Name())
	c.SetClock(func() time.Time { return time.Unix(1754600000, 0) })
	t0 := time.Now()
	if err := w.Run(context.Background(), params, c); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took > 10*time.Second {
		t.Fatalf("a frozen-clock run took %v: the paced phase slept wall time", took)
	}
	paced := c.Snapshot()
	if paced.Counters["pattern_digest"] != unpaced.Counters["pattern_digest"] || paced.Counters["ops"] != unpaced.Counters["ops"] {
		t.Fatalf("pacing changed the outputs: %v vs %v", paced.Counters, unpaced.Counters)
	}
	if len(paced.Ops) != len(unpaced.Ops) {
		t.Fatalf("%d op cells paced, %d unpaced", len(paced.Ops), len(unpaced.Ops))
	}
	for i, op := range paced.Ops {
		if op.Op != unpaced.Ops[i].Op || op.Count != unpaced.Ops[i].Count || op.Max != 0 {
			t.Fatalf("op %q count %d max %v, unpaced %q count %d", op.Op, op.Count, op.Max, unpaced.Ops[i].Op, unpaced.Ops[i].Count)
		}
	}
}

// TestPacedSamplesCarryTheirOwnTimes: a phase paced at 100 ops/s over 40
// operations spreads them over 390 ms, and so do their captured samples'
// offsets. Observations replayed after the stream had finished were all
// stamped within microseconds of its end.
func TestPacedSamplesCarryTheirOwnTimes(t *testing.T) {
	w, err := Compile(Pattern{Name: "paced-samples", Ops: []OpWeight{{Op: "scan"}}, OpsPerScale: 40,
		Phases: []Phase{{Name: "slow", Rate: 100}}})
	if err != nil {
		t.Fatal(err)
	}
	c := metrics.NewCollector(w.Name())
	c.EnableSampling(0)
	if err := w.Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 2, DatagenWorkers: 1}, c); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.Snapshot().Samples {
		if s.Op != "slow/scan" {
			continue
		}
		if len(s.Samples) != 40 {
			t.Fatalf("%d slow/scan samples, want 40", len(s.Samples))
		}
		lo, hi := s.Samples[0].Offset, s.Samples[0].Offset
		for _, x := range s.Samples {
			lo, hi = min(lo, x.Offset), max(hi, x.Offset)
		}
		if span, want := time.Duration(hi-lo), time.Duration(0.8*0.39*float64(time.Second)); span < want {
			t.Fatalf("slow/scan sample offsets span %v, want at least %v", span, want)
		}
		return
	}
	t.Fatal("no slow/scan samples captured")
}
