package scenario

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/opcompose"
	"github.com/bdbench/bdbench/internal/testgen"
	"github.com/bdbench/bdbench/internal/workloads"
)

// cancelOnErr is the run's context, except that the first Err call cancels
// it: a workload is cancelled at its first check. Done is the real channel.
type cancelOnErr struct {
	context.Context
	cancel context.CancelFunc
	once   sync.Once
}

func (c *cancelOnErr) Err() error {
	c.once.Do(c.cancel)
	return c.Context.Err()
}

// cancelAtFirstCheck runs the inner workload under cancelOnErr and sets
// returned once the inner Run has returned.
type cancelAtFirstCheck struct {
	workloads.Workload
	cancel   context.CancelFunc
	returned atomic.Bool
}

func (w *cancelAtFirstCheck) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	err := w.Workload.Run(&cancelOnErr{Context: ctx, cancel: w.cancel}, p, c)
	w.returned.Store(true)
	return err
}

// TestBuiltinsStopCleanlyOnCancel: every built-in, a weblog pattern and a
// bound prescription, cancelled at their first context check, fail with
// context.Canceled, have returned when engine.Run returns, and leave no
// goroutine behind.
func TestBuiltinsStopCleanlyOnCancel(t *testing.T) {
	pattern, err := opcompose.Compile(opcompose.Pattern{
		Name: "mix", Corpus: "weblog", OpsPerScale: 400,
		Ops: []opcompose.OpWeight{{Op: "filter", Weight: 2}, {Op: "aggregate"}, {Op: "scan"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	bound, err := testgen.Bind(testgen.Config{Prescription: "iterative-shrink", Stack: "dbms"})
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range append(Default().Workloads(), pattern, bound) {
		t.Run(inner.Name(), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &cancelAtFirstCheck{Workload: inner, cancel: cancel}
			task := engine.Task{Workload: w, Category: w.Category(),
				Params: workloads.Params{Seed: 2014, Scale: 1, Workers: 2, DatagenWorkers: 2}}
			before := runtime.NumGoroutine()
			res := engine.Run(ctx, []engine.Task{task}, engine.Config{Workers: 1})[0]
			if !w.returned.Load() {
				t.Fatal("engine.Run returned before the workload did")
			}
			if !errors.Is(res.Err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", res.Err)
			}
			for i := 0; runtime.NumGoroutine() > before; i++ {
				if i == 100 {
					t.Fatalf("goroutines %d, %d before the cancelled run", runtime.NumGoroutine(), before)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
