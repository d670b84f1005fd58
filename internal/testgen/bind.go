package testgen

import (
	"context"
	"fmt"
	"strings"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Config binds a prescription to a stack — the §5.2 "repository of reusable
// prescriptions" turned into a registrable workload. This is how external
// callers extend the inventory without writing a stack binding: pick a
// prescription, pick a stack, register the result, select it from a
// scenario.
type Config struct {
	// Name is the registered workload name; empty derives
	// "<prescription>@<stack>".
	Name string
	// Category and Domain classify the workload in reports; they default to
	// online services / "abstract operations".
	Category workloads.Category
	Domain   string
	// Prescription names a built-in recipe (see Names) or is satisfied by
	// Recipe when set.
	Prescription string
	// Recipe, when non-nil, is used instead of looking Prescription up.
	Recipe *Prescription
	// Stack picks the executor: "reference", "dbms", "nosql" or
	// "mapreduce".
	Stack string
}

// Bind validates the config and returns a Workload that executes the
// prescription on the chosen stack. Params.Scale multiplies the
// prescription's input size; Params.Workers drives the stack's
// parallelism; outputs are deterministic in Params.Seed.
func Bind(cfg Config) (workloads.Workload, error) {
	var p Prescription
	if cfg.Recipe != nil {
		p = *cfg.Recipe
	} else {
		var err error
		if p, err = Find(cfg.Prescription); err != nil {
			return nil, err
		}
	}
	if cfg.Stack == "" {
		cfg.Stack = "reference"
	}
	newExec, ok := executors[cfg.Stack]
	if !ok {
		return nil, fmt.Errorf("testgen: unknown stack %q (have: %s)", cfg.Stack, strings.Join(Stacks(), ", "))
	}
	if cfg.Name == "" {
		cfg.Name = p.Name + "@" + cfg.Stack
	}
	if cfg.Category == "" {
		cfg.Category = workloads.Online
	}
	if cfg.Domain == "" {
		cfg.Domain = "abstract operations"
	}
	return &boundTest{cfg: cfg, p: p, stackType: newExec(1).StackType()}, nil
}

// boundTest is Figure 4's prescribed test: one prescription on one stack.
// cfg holds the config with its defaults filled in.
type boundTest struct {
	cfg       Config
	p         Prescription
	stackType stacks.Type
}

// Name implements workloads.Workload.
func (w *boundTest) Name() string { return w.cfg.Name }

// Category implements workloads.Workload.
func (w *boundTest) Category() workloads.Category { return w.cfg.Category }

// Domain implements workloads.Workload.
func (w *boundTest) Domain() string { return w.cfg.Domain }

// StackTypes implements workloads.Workload.
func (w *boundTest) StackTypes() []stacks.Type { return []stacks.Type{w.stackType} }

// Run implements workloads.Workload: generate the prescription's data at
// the requested scale, execute every step on the stack, and record the
// outcome into the collector.
func (w *boundTest) Run(ctx context.Context, params workloads.Params, c *metrics.Collector) error {
	p := w.p
	if params.Scale > 1 {
		p.Data.Size *= params.Scale
		if p.Data.SecondSize > 0 {
			p.Data.SecondSize *= params.Scale
		}
	}
	if params.Seed != 0 {
		p.Data.Seed = params.Seed
	}
	t0 := c.Now()
	out, err := RunOn(ctx, executors[w.cfg.Stack](params.Workers), p, c)
	if err != nil {
		return fmt.Errorf("testgen: prescription %s on %s: %w", p.Name, w.cfg.Stack, err)
	}
	c.Op("prescription").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(int64(len(out)))
	return nil
}
