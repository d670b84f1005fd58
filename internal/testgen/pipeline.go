package testgen

import (
	"context"
	"fmt"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/workloads"
)

// This file implements the five-step test generation process of Figure 4:
// (1) select a data set, (2) select abstracted operations, (3) select
// workload patterns, (4) generate a prescription, (5) create a prescribed
// test for a specific system and software stack.

// StepTrace records one pipeline step for the figure reproduction.
type StepTrace struct {
	Step     int
	Name     string
	Detail   string
	Duration time.Duration
}

// reference names the stack of the abstract reference executor, the
// functional-view oracle every other stack is checked against.
const reference = "reference"

// stackEntry is one stack a prescription can be bound to: its name, its
// stack type, and its executor, where workers is the stack's parallelism
// if it has one.
type stackEntry struct {
	name string
	typ  stacks.Type
	exec func(workers int) Executor
}

// stackTable lists every stack a prescription can be bound to, sorted by
// name.
var stackTable = []stackEntry{
	{"dbms", stacks.TypeDBMS, func(int) Executor { return NewDBMSExecutor() }},
	{"mapreduce", stacks.TypeMapReduce, func(workers int) Executor { return NewMapReduceExecutor(workers) }},
	{"nosql", stacks.TypeNoSQL, func(int) Executor { return NewNoSQLExecutor() }},
	{reference, "abstract", func(int) Executor { return &ReferenceExecutor{} }},
}

// Stacks lists the stacks a prescription can be bound to, sorted.
func Stacks() []string {
	out := make([]string, len(stackTable))
	for i, s := range stackTable {
		out[i] = s.name
	}
	return out
}

// Generate performs steps 1-5: it builds a prescription from the selections
// and binds it to every stack. It returns the prescription, one prescribed
// test per stack (in Stacks order) as a runnable workload, and the step
// trace.
func Generate(data DataSpec, steps []Step, kind PatternKind, stop StopCondition, maxIter int) (Prescription, []workloads.Workload, []StepTrace, error) {
	var trace []StepTrace
	record := func(step int, name, detail string, t0 time.Time) {
		trace = append(trace, StepTrace{Step: step, Name: name, Detail: detail, Duration: time.Since(t0)})
	}

	t0 := time.Now()
	main, second, err := GenerateData(data)
	if err != nil {
		return Prescription{}, nil, nil, err
	}
	record(1, "select data set",
		fmt.Sprintf("source=%s size=%d second=%d", data.Source, len(main), len(second)), t0)

	t1 := time.Now()
	for _, s := range steps {
		if _, err := Op(s.Op); err != nil {
			return Prescription{}, nil, nil, err
		}
	}
	record(2, "select operations", fmt.Sprintf("%d of %d available", len(steps), len(operations)), t1)

	record(3, "select workload pattern", string(kind), time.Now())

	t3 := time.Now()
	p := Prescription{
		Name:    fmt.Sprintf("generated-%s-%s", data.Source, kind),
		Data:    data,
		Kind:    kind,
		Steps:   steps,
		Stop:    stop,
		MaxIter: maxIter,
		Metrics: []string{"duration", "throughput"},
	}
	if err := p.Validate(); err != nil {
		return Prescription{}, nil, nil, err
	}
	record(4, "generate prescription", p.Name, t3)

	t4 := time.Now()
	var tests []workloads.Workload
	for _, stack := range Stacks() {
		w, err := Bind(Config{Recipe: &p, Stack: stack})
		if err != nil {
			return Prescription{}, nil, nil, err
		}
		tests = append(tests, w)
	}
	record(5, "create prescribed tests", fmt.Sprintf("%d stacks", len(tests)), t4)
	return p, tests, trace, nil
}

// VerifyPortability runs the prescription on every stack and checks the
// functional view: each must produce the same normalized dataset as the
// reference executor. It returns the per-stack results keyed by stack name.
func VerifyPortability(ctx context.Context, p Prescription, workers int) (map[string]Dataset, error) {
	results := make(map[string]Dataset, len(stackTable))
	for _, s := range stackTable {
		out, err := RunOn(ctx, s.exec(workers), p, metrics.NewCollector(s.name))
		if err != nil {
			return nil, fmt.Errorf("testgen: %s: %w", s.name, err)
		}
		results[s.name] = out
	}
	ref := results[reference]
	for _, s := range stackTable {
		if r := results[s.name]; !r.Equal(ref) {
			return results, fmt.Errorf("testgen: functional view violated: %s disagrees with reference (%d vs %d records)",
				s.name, len(r), len(ref))
		}
	}
	return results, nil
}
