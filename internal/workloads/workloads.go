// Package workloads defines the common workload contract used across
// bdbench's benchmark suites, mirroring §4.2 of "On Big Data Benchmarking":
// every workload belongs to one of three user-facing categories (online
// services, offline analytics, real-time analytics), one application domain
// (micro, search engine, social network, e-commerce, OLTP, relational
// queries, streaming) and runs on one or more software-stack types.
//
// A built-in workload is a value, not a type, declared once as its Table 2
// row: New takes its name, category, domain, body and stacks. The Workload
// New returns owns the entry contract, so no body repeats it: Params
// defaults are filled in, and a done context fails the call before the
// body runs. Only the YCSB core workloads (oltp.CoreWorkload) keep a type
// of their own, because their fields are the workload's knobs.
//
// Concrete workloads live in subpackages: micro, search, social, commerce,
// oltp, relational and streamwl.
package workloads

import (
	"context"
	"runtime"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
)

// Category is the paper's three-way user-perspective classification.
type Category string

// The workload categories of Table 2.
const (
	Online   Category = "online services"
	Offline  Category = "offline analytics"
	Realtime Category = "real-time analytics"
)

// Params controls a workload execution. Scale is a workload-specific size
// knob (records, documents, vertices — see each workload's docs); Workers
// is the parallelism of the underlying stack; DatagenWorkers bounds the
// chunk-parallel pool that prepares the workload's input data.
type Params struct {
	Seed    uint64
	Scale   int
	Workers int
	// DatagenWorkers is the worker count of the chunked data-generation
	// pipeline (internal/datagen). Input bytes are identical at any
	// setting — chunk RNGs derive from (seed, chunk index) — so it is a
	// pure speed knob. Zero or negative means one worker per CPU.
	DatagenWorkers int
}

// WithDefaults fills zero fields: Scale 1, Workers 4, DatagenWorkers one
// per CPU.
func (p Params) WithDefaults() Params {
	if p.Scale <= 0 {
		p.Scale = 1
	}
	if p.Workers <= 0 {
		p.Workers = 4
	}
	if p.DatagenWorkers <= 0 {
		p.DatagenWorkers = runtime.GOMAXPROCS(0)
	}
	return p
}

// Workload is one runnable benchmark workload. Run must generate (or accept
// pre-staged) input at the requested scale, execute on its stack, verify
// the result's correctness invariants, and record latencies/counters into
// the collector. Run implementations return errors for both execution
// failures and verification failures.
//
// Run observes ctx cooperatively: implementations check ctx at phase
// boundaries (and inside long operation loops) and return ctx.Err() when the
// deadline passes or the run is cancelled. The execution engine
// (internal/engine) supplies per-repetition deadlines through this context
// and waits for Run to return, so a workload's cancellation latency is its
// longest stretch between ctx checks.
type Workload interface {
	Name() string
	Category() Category
	Domain() string
	StackTypes() []stacks.Type
	Run(ctx context.Context, p Params, c *metrics.Collector) error
}

// New returns the workload named name, of the given category, domain and
// stack types, whose body is run. Its Run returns ctx.Err() at once on a
// done context, and otherwise calls run with p's defaults filled in. The
// result is a pointer, so two workloads compare with == by identity.
func New(name string, category Category, domain string,
	run func(ctx context.Context, p Params, c *metrics.Collector) error, stackTypes ...stacks.Type) Workload {
	return &builtin{name: name, category: category, domain: domain, stackTypes: stackTypes, run: run}
}

// builtin is a workload declared by New.
type builtin struct {
	name       string
	category   Category
	domain     string
	stackTypes []stacks.Type
	run        func(ctx context.Context, p Params, c *metrics.Collector) error
}

func (w *builtin) Name() string              { return w.name }
func (w *builtin) Category() Category        { return w.category }
func (w *builtin) Domain() string            { return w.domain }
func (w *builtin) StackTypes() []stacks.Type { return w.stackTypes }

func (w *builtin) Run(ctx context.Context, p Params, c *metrics.Collector) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return w.run(ctx, p.WithDefaults(), c)
}
