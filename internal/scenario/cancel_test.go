package scenario

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/opcompose"
	"github.com/bdbench/bdbench/internal/testgen"
	"github.com/bdbench/bdbench/internal/workloads"
)

// cancelOnErr is the run's context, except that its at-th Err call cancels
// it: a workload is cancelled at that check. Done is the real channel.
type cancelOnErr struct {
	context.Context
	cancel context.CancelFunc
	at     int32
	calls  atomic.Int32
}

func (c *cancelOnErr) Err() error {
	if c.calls.Add(1) == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// cancelAtCheck runs the inner workload under cancelOnErr, cancelled at its
// at-th context check, and sets returned once the inner Run has returned.
type cancelAtCheck struct {
	workloads.Workload
	cancel   context.CancelFunc
	at       int32
	returned atomic.Bool
}

func (w *cancelAtCheck) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	err := w.Workload.Run(&cancelOnErr{Context: ctx, cancel: w.cancel, at: w.at}, p, c)
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
		t.Run(inner.Name(), func(t *testing.T) { stopsCleanlyOnCancel(t, inner, 1) })
	}
}

// TestBuiltinsFailFastOnADoneContext: every built-in, called with an
// already-cancelled context and zero Params, fails with context.Canceled
// before it generates, loads or records anything.
func TestBuiltinsFailFastOnADoneContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range Default().Workloads() {
		c := metrics.NewCollector(w.Name())
		if err := w.Run(ctx, workloads.Params{}, c); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", w.Name(), err)
		}
		if ops := c.Snapshot().Ops; len(ops) != 0 {
			t.Errorf("%s: a cancelled call recorded %d ops, the first %q", w.Name(), len(ops), ops[0].Op)
		}
	}
}

// TestMicroStopOnceInputIsBuilt: the four micro built-ins and six others
// check the context again between building their input and running their
// stack, so a cancel at their second check stops them cleanly too.
func TestMicroStopOnceInputIsBuilt(t *testing.T) {
	names := map[string]bool{
		"grep": true, "wordcount": true, "sort": true, "terasort": true,
		"collaborative-filtering": true, "connected-components": true, "inverted-index": true,
		"pagerank": true, "rolling-aggregate": true, "windowed-count": true,
	}
	ran := 0
	for _, inner := range Default().Workloads() {
		if names[inner.Name()] {
			ran++
			t.Run(inner.Name(), func(t *testing.T) { stopsCleanlyOnCancel(t, inner, 2) })
		}
	}
	if ran != len(names) {
		t.Fatalf("ran %d of the %d built-ins", ran, len(names))
	}
}

// stopsCleanlyOnCancel runs inner cancelled at its at-th context check and
// requires it to fail with context.Canceled, to have returned when
// engine.Run returns, and to leave no goroutine behind.
func stopsCleanlyOnCancel(t *testing.T, inner workloads.Workload, at int32) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w := &cancelAtCheck{Workload: inner, cancel: cancel, at: at}
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
}
