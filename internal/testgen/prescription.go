package testgen

import (
	"fmt"
	"sort"
	"strings"
)

// PatternKind is the paper's three-way workload-pattern classification.
type PatternKind string

// The pattern kinds of §3.3.
const (
	// SinglePattern contains exactly one operation.
	SinglePattern PatternKind = "single-operation"
	// MultiPattern contains a finite sequence of operations.
	MultiPattern PatternKind = "multi-operation"
	// IterativePattern repeats its steps until a stop condition holds, so
	// the operation count is only known at run time.
	IterativePattern PatternKind = "iterative-operation"
)

// Step is one operation invocation within a pattern. UseSecond selects the
// prescription's secondary data set as the right input of a double-set
// operation.
type Step struct {
	Op        string `json:"op"`
	Arg       string `json:"arg,omitempty"`
	UseSecond bool   `json:"use_second,omitempty"`
}

// StopCondition names an iterative pattern's termination rule.
type StopCondition string

// The built-in stop conditions.
const (
	// StopWhenStable stops when an iteration leaves the data set's size
	// unchanged.
	StopWhenStable StopCondition = "stable"
	// StopBelowSize stops when the data set shrinks below StopSize.
	StopBelowSize StopCondition = "below-size"
)

// DataSpec names the input data of a prescription.
type DataSpec struct {
	// Source selects the generator: "words" (key=id, value=random word
	// sequence) or "pairs" (key=kNNN, value=vNNN).
	Source string `json:"source"`
	Size   int    `json:"size"`
	Seed   uint64 `json:"seed"`
	// SecondSize sizes the secondary data set for double-set operations
	// (0 disables it).
	SecondSize int `json:"second_size,omitempty"`
}

// Prescription is the serializable test recipe of §3.3: "a prescription
// includes the information needed to produce a benchmarking test, including
// data sets, a set of operations and workload patterns, a method to
// generate workload, and the evaluation metrics".
type Prescription struct {
	Name    string        `json:"name"`
	Data    DataSpec      `json:"data"`
	Kind    PatternKind   `json:"kind"`
	Steps   []Step        `json:"steps"`
	Stop    StopCondition `json:"stop,omitempty"`
	StopArg int           `json:"stop_arg,omitempty"`
	MaxIter int           `json:"max_iter,omitempty"`
	// Metrics lists the metric names the report should include.
	Metrics []string `json:"metrics,omitempty"`
}

// Validate checks structural consistency against the operation vocabulary.
func (p Prescription) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("testgen: prescription needs a name")
	}
	if len(p.Steps) == 0 {
		return fmt.Errorf("testgen: prescription %q has no steps", p.Name)
	}
	if p.Kind == SinglePattern && len(p.Steps) != 1 {
		return fmt.Errorf("testgen: single-operation pattern must have exactly one step, got %d", len(p.Steps))
	}
	if p.Kind == IterativePattern {
		if p.Stop == "" {
			return fmt.Errorf("testgen: iterative pattern %q needs a stop condition", p.Name)
		}
		if p.Stop != StopWhenStable && p.Stop != StopBelowSize {
			return fmt.Errorf("testgen: unknown stop condition %q", p.Stop)
		}
	}
	if p.Data.Size <= 0 {
		return fmt.Errorf("testgen: prescription %q needs a positive data size", p.Name)
	}
	for _, s := range p.Steps {
		op, err := Op(s.Op)
		if err != nil {
			return err
		}
		if s.UseSecond && op.Arity != DoubleSetOp {
			return fmt.Errorf("testgen: step %q is not double-set but references the second data set", s.Op)
		}
		if op.Arity == DoubleSetOp && !s.UseSecond {
			return fmt.Errorf("testgen: double-set step %q must set use_second", s.Op)
		}
		if op.Arity == DoubleSetOp && p.Data.SecondSize <= 0 {
			return fmt.Errorf("testgen: double-set step %q needs data.second_size > 0", s.Op)
		}
	}
	return nil
}

// Find fetches a built-in prescription by name.
func Find(name string) (Prescription, error) {
	for _, p := range prescriptions {
		if p.Name == name {
			return p, nil
		}
	}
	return Prescription{}, fmt.Errorf("testgen: no prescription %q (have: %s)", name, strings.Join(Names(), ", "))
}

// Names lists the built-in prescriptions in sorted order.
func Names() []string {
	out := make([]string, len(prescriptions))
	for i, p := range prescriptions {
		out[i] = p.Name
	}
	sort.Strings(out)
	return out
}

// prescriptions is the §5.2 "repository of reusable prescriptions": the
// stock recipes, one per pattern kind, covering the paper's examples (a
// SQL-like select+put sequence, basic database operations, and an
// iterative reduction).
var prescriptions = []Prescription{
	{
		Name:    "db-point-ops",
		Data:    DataSpec{Source: "pairs", Size: 1000, Seed: 1},
		Kind:    MultiPattern,
		Steps:   []Step{{Op: "put", Arg: "k42=updated"}, {Op: "get", Arg: "k42"}},
		Metrics: []string{"duration", "throughput"},
	},
	{
		Name:    "select-count",
		Data:    DataSpec{Source: "words", Size: 2000, Seed: 2},
		Kind:    MultiPattern,
		Steps:   []Step{{Op: "select", Arg: "data"}, {Op: "count"}},
		Metrics: []string{"duration"},
	},
	{
		Name:    "sort-only",
		Data:    DataSpec{Source: "words", Size: 2000, Seed: 3},
		Kind:    SinglePattern,
		Steps:   []Step{{Op: "sort"}},
		Metrics: []string{"duration"},
	},
	{
		Name:    "iterative-shrink",
		Data:    DataSpec{Source: "words", Size: 4000, Seed: 4},
		Kind:    IterativePattern,
		Steps:   []Step{{Op: "select", Arg: "a"}},
		Stop:    StopWhenStable,
		MaxIter: 50,
		Metrics: []string{"duration", "iterations"},
	},
	{
		Name:    "join-sets",
		Data:    DataSpec{Source: "pairs", Size: 1000, Seed: 5, SecondSize: 500},
		Kind:    MultiPattern,
		Steps:   []Step{{Op: "join", UseSecond: true}, {Op: "count"}},
		Metrics: []string{"duration"},
	},
}
