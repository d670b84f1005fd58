package testgen

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"github.com/bdbench/bdbench/internal/metrics"
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
	// Stack picks the executor, one of Stacks(); empty is the reference
	// executor.
	Stack string
}

// Bind validates the config and returns a Workload that executes the
// prescription on the chosen stack: it generates the prescription's data
// at the requested scale, executes every step on the stack, and records the
// outcome into the collector. Params.Scale multiplies the prescription's
// input size; Params.Workers drives the stack's parallelism; zero fields
// take Params' defaults, as for every built-in. Outputs are deterministic
// in Params.Seed.
func Bind(cfg Config) (workloads.Workload, error) {
	var recipe Prescription
	if cfg.Recipe != nil {
		recipe = *cfg.Recipe
	} else {
		var err error
		if recipe, err = Find(cfg.Prescription); err != nil {
			return nil, err
		}
	}
	if cfg.Stack == "" {
		cfg.Stack = reference
	}
	i := slices.IndexFunc(stackTable, func(s stackEntry) bool { return s.name == cfg.Stack })
	if i < 0 {
		return nil, fmt.Errorf("testgen: unknown stack %q (have: %s)", cfg.Stack, strings.Join(Stacks(), ", "))
	}
	stack := stackTable[i]
	if cfg.Name == "" {
		cfg.Name = recipe.Name + "@" + stack.name
	}
	if cfg.Category == "" {
		cfg.Category = workloads.Online
	}
	if cfg.Domain == "" {
		cfg.Domain = "abstract operations"
	}
	run := func(ctx context.Context, params workloads.Params, c *metrics.Collector) error {
		p := recipe
		p.Data.Size *= params.Scale
		p.Data.SecondSize *= params.Scale
		if params.Seed != 0 {
			p.Data.Seed = params.Seed
		}
		t0 := c.Now()
		out, err := RunOn(ctx, stack.exec(params.Workers), p, c)
		if err != nil {
			return fmt.Errorf("testgen: prescription %s on %s: %w", p.Name, stack.name, err)
		}
		c.Op("prescription").Observe(c.Now().Sub(t0))
		c.CounterRef("records").Add(int64(len(out)))
		return nil
	}
	return workloads.New(cfg.Name, cfg.Category, cfg.Domain, run, stack.typ), nil
}
