package bdbench

import (
	"context"

	"github.com/bdbench/bdbench/internal/scenario"
)

// Outcome is the full result of a scenario run: the normalized spec, the
// five-step process trace, per-workload results, the per-category summary
// and (when probing was requested) per-suite data-generation evidence.
type Outcome = scenario.Outcome

// WorkloadResult is one selected workload's outcome with its provenance.
type WorkloadResult = scenario.Result

// SuiteProbe is one suite's data-generation evidence (volume scaling and
// measured veracity).
type SuiteProbe = scenario.SuiteProbe

// StepTrace records one executed step of the Figure 1 process.
type StepTrace = scenario.StepTrace

// Step names a step of the Figure 1 benchmarking process.
type Step = scenario.Step

// The benchmarking process steps.
const (
	StepPlanning       = scenario.StepPlanning
	StepDataGeneration = scenario.StepDataGeneration
	StepTestGeneration = scenario.StepTestGeneration
	StepExecution      = scenario.StepExecution
	StepAnalysis       = scenario.StepAnalysis
)

// Option tunes a Run beyond what the Scenario declares.
type Option func(*scenario.Options)

// WithRegistry resolves the scenario against reg instead of the default
// registry — an isolated inventory for tests or fully custom benchmarks.
func WithRegistry(reg *Registry) Option {
	return func(o *scenario.Options) { o.Registry = reg }
}

// WithEvents subscribes fn to the engine's streaming progress events
// (task-start, rep-done, task-done). Calls are serialized by the engine.
func WithEvents(fn func(Event)) Option {
	return func(o *scenario.Options) { o.OnEvent = fn }
}

// WithDataProbes enables the data-generation step's volume and veracity
// probes for every distinct suite in the selection — the full Figure 1
// process. Probing trains generator models, so it costs seconds per suite.
func WithDataProbes() Option {
	return func(o *scenario.Options) { o.ProbeData = true }
}

// Run executes the scenario's five-step benchmarking process on the
// concurrent execution engine and returns the analyzed outcome.
//
// Workload failures do not stop the run: they are reported per result, and
// summarized in a non-nil error alongside the (still valid) outcome.
// Validation failures return a nil outcome. Cancelling ctx fails the
// in-flight workload executions; Run returns once they have returned.
func Run(ctx context.Context, s Scenario, opts ...Option) (*Outcome, error) {
	var o scenario.Options
	for _, opt := range opts {
		opt(&o)
	}
	o.ToolVersion = Version
	return scenario.Run(ctx, s, o)
}
