package engine

import (
	"context"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/workloads"
)

// noopTask is the cheapest possible workload: awaitRun's own cost (one
// goroutine, one pooled completion channel, the closure) is all that
// remains.
func noopTask() Task {
	w := fakeWorkload{name: "noop", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		return nil
	}}
	return Task{Workload: w, Category: w.Category(), Params: workloads.Params{Seed: 1, Scale: 1, Workers: 1}}
}

// BenchmarkEngineRepOverhead measures the engine's fixed per-operation
// cost: one awaitRun round trip with a no-op workload — the path open-loop
// mode pays for every dispatched operation. The done-channel pool keeps the
// allocs/op column to the goroutine spawn plus the workload closure;
// TestAwaitRunAllocBound holds it there.
func BenchmarkEngineRepOverhead(b *testing.B) {
	t := noopTask()
	c := metrics.NewCollector("bench")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := awaitRun(ctx, t, c); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAwaitRunAllocBound pins the per-operation allocation budget of the
// engine's execution path. Unlike the record and dispatch hot paths this
// one cannot be zero — each operation runs in its own goroutine and the
// closure that carries the task into it escapes — but the completion
// channel is pooled, so the steady-state count must stay small and must
// not grow with call volume.
func TestAwaitRunAllocBound(t *testing.T) {
	task := noopTask()
	c := metrics.NewCollector("alloc")
	ctx := context.Background()
	// Warm the pool and the goroutine machinery.
	for i := 0; i < 100; i++ {
		if err := awaitRun(ctx, task, c); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := awaitRun(ctx, task, c); err != nil {
			t.Fatal(err)
		}
	})
	if raceflag.Enabled {
		t.Skipf("allocation counts not asserted under -race (measured %.1f)", allocs)
	}
	// Goroutine + closure land around 3; the bound leaves headroom for
	// runtime variation while still catching a lost channel pool (which
	// would add one) or any new per-op garbage.
	if allocs > 4 {
		t.Errorf("awaitRun steady state: %.1f allocs/op, want <= 4", allocs)
	}
}

// TestDonePoolNotRecycledOnTimeout guards the pool's safety rule: a channel
// abandoned on the timeout path still receives the late result, so it must
// never return to the pool where a later run could read that stale value as
// its own. The test abandons a slow run, lets its late send land, then
// drains the pool and verifies no channel is carrying a buffered value.
func TestDonePoolNotRecycledOnTimeout(t *testing.T) {
	block := make(chan struct{})
	slow := fakeWorkload{name: "slow", run: func(context.Context, workloads.Params, *metrics.Collector) error {
		<-block
		return nil
	}}
	task := Task{Workload: slow, Params: workloads.Params{Seed: 1, Scale: 1, Workers: 1}}
	c := metrics.NewCollector("stale")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := awaitRun(ctx, task, c); err != context.Canceled {
		t.Fatalf("abandoned run: err = %v, want context.Canceled", err)
	}
	close(block) // the abandoned goroutine now completes its buffered send
	for i := 0; i < 1000; i++ {
		ch := donePool.Get().(chan error)
		select {
		case err := <-ch:
			t.Fatalf("pool returned a channel holding a stale result: %v", err)
		default:
		}
		donePool.Put(ch)
	}
}
