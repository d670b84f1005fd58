package engine

import (
	"context"
	"testing"

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
// engine's execution path at zero: the workload runs on the caller's
// goroutine, so no goroutine, closure or completion channel is paid per
// execution.
func TestExecuteZeroAlloc(t *testing.T) {
	task := noopTask()
	c := metrics.NewCollector("alloc")
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if err := execute(ctx, task, c); err != nil {
			t.Fatal(err)
		}
	})
	if raceflag.Enabled {
		t.Skipf("allocation counts not asserted under -race (measured %.1f)", allocs)
	}
	if allocs != 0 {
		t.Errorf("execute steady state: %.1f allocs/op, want 0", allocs)
	}
}
