package bdbench

import (
	"github.com/bdbench/bdbench/internal/scenario"
	"github.com/bdbench/bdbench/internal/testgen"
)

// Registry resolves the names a Scenario refers to: workloads and suites,
// registered by name. DefaultRegistry is pre-seeded with the entire
// built-in inventory; NewRegistry builds an isolated one (useful for tests
// or fully custom benchmarks).
type Registry = scenario.Registry

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return scenario.NewRegistry() }

// DefaultRegistry returns the shared registry seeded with the built-in
// suites (the ten surveyed emulations plus bdbench's own row) and every
// workload their rows name.
func DefaultRegistry() *Registry { return scenario.Default() }

// PrescriptionConfig configures NewPrescriptionWorkload.
type PrescriptionConfig = testgen.Config

// Prescription is a serializable abstract-test recipe (§3.3/§5.2): input
// data, operation steps and a workload pattern, bindable to any stack.
type Prescription = testgen.Prescription

// NewPrescriptionWorkload builds a custom Workload from a testgen
// prescription bound to one stack ("reference", "dbms", "nosql",
// "mapreduce") — the paper's test-generation layer as an extension point:
// build, RegisterWorkload on a Registry, then select it from a Scenario like
// any other workload.
func NewPrescriptionWorkload(cfg PrescriptionConfig) (Workload, error) {
	return testgen.Bind(cfg)
}
