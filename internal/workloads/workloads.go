// Package workloads defines the common workload contract used across
// bdbench's benchmark suites, mirroring §4.2 of "On Big Data Benchmarking":
// every workload belongs to one of three user-facing categories (online
// services, offline analytics, real-time analytics), one application domain
// (micro, search engine, social network, e-commerce, OLTP, relational
// queries, streaming) and runs on one or more software-stack types.
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
// (internal/engine) supplies per-repetition deadlines through this context.
type Workload interface {
	Name() string
	Category() Category
	Domain() string
	StackTypes() []stacks.Type
	Run(ctx context.Context, p Params, c *metrics.Collector) error
}
