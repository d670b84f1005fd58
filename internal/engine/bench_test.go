package engine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/workloads"
)

// noopTask is the cheapest possible workload: execute's own cost is all
// that remains.
func noopTask() Task {
	w := fakeWorkload{name: "noop", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		return nil
	}}
	return Task{Workload: w, Category: w.Category(), Params: workloads.Params{Seed: 1, Scale: 1, Workers: 1}}
}

// BenchmarkEngineRepOverhead measures the engine's fixed per-operation
// cost: one execute call with a no-op workload — the path open-loop mode
// pays for every dispatched operation. TestExecuteZeroAlloc holds its
// allocs/op column at zero.
func BenchmarkEngineRepOverhead(b *testing.B) {
	t := noopTask()
	c := metrics.NewCollector("bench")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := execute(ctx, t, c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestExecuteZeroAlloc pins the per-operation allocation budget of the
// engine's execution path at exactly zero: the workload runs on the
// caller's goroutine, so no goroutine, closure or completion channel is paid
// per execution. The loop of executions is measured as one run, so a
// fraction of an allocation per execution fails the test too.
func TestExecuteZeroAlloc(t *testing.T) {
	const runs = 1000
	task := noopTask()
	c := metrics.NewCollector("alloc")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1, func() {
		for range runs {
			if err := execute(ctx, task, c); err != nil {
				t.Fatal(err)
			}
		}
	}) / runs
	if raceflag.Enabled {
		t.Skipf("allocation counts not asserted under -race (measured %.4f)", allocs)
	}
	if allocs != 0 {
		t.Errorf("execute steady state: %.4f allocs/op, want 0", allocs)
	}
}

// TestOpenLoopDeadlineZeroAlloc holds the seam between the two halves of
// the contract: the same open-loop noop window through Run, with and
// without Config.Timeout, may differ by less than a quarter of an
// allocation per dispatched operation, and neither may pay a whole one.
// loadgen re-arms deadlines from a per-run free list; a context built per
// operation costs about four.
func TestOpenLoopDeadlineZeroAlloc(t *testing.T) {
	perOp := func(timeout time.Duration) float64 {
		task := noopTask()
		task.Load = &loadgen.Options{Rate: 2000, Duration: 250 * time.Millisecond}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		res := Run(context.Background(), []Task{task}, Config{Workers: 1, Timeout: timeout})[0]
		runtime.ReadMemStats(&ms)
		if res.Err != nil || res.Load.Dispatched != res.Load.Scheduled {
			t.Fatalf("timeout %v: err %v, load %+v", timeout, res.Err, res.Load)
		}
		return float64(ms.Mallocs-before) / float64(res.Load.Dispatched)
	}
	without, with := perOp(0), perOp(time.Minute)
	if raceflag.Enabled {
		t.Skipf("allocation counts not asserted under -race (measured %.2f and %.2f mallocs/op)", without, with)
	}
	if d := with - without; d >= 0.25 {
		t.Errorf("Config.Timeout adds %.2f mallocs per open-loop operation (%.2f without, %.2f with), want < 0.25", d, without, with)
	}
	// The window's fixed costs spread over its 500 operations read about
	// 0.15; a whole malloc per operation is one the dispatch path pays.
	if without >= 1 {
		t.Errorf("%.2f mallocs per open-loop operation without a deadline, want < 1", without)
	}
}
