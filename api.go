package bdbench

// This file re-exports the contract types of the public API. They are
// aliases, so values returned by bdbench interoperate directly with the
// internal packages (and with the public datagen/ and stacks/ facades)
// without conversion.

import (
	"fmt"

	"github.com/bdbench/bdbench/internal/datagen"
	_ "github.com/bdbench/bdbench/internal/datagen/corpora" // register the built-in corpus generators
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/opcompose"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/suites"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Workload is one runnable benchmark workload: it generates its input at
// the requested scale, executes on its stack, verifies correctness
// invariants and records measurements into the Collector. Implement it to
// register custom workloads; all built-in workloads satisfy it.
type Workload = workloads.Workload

// Params controls a workload execution: Seed for determinism, Scale as the
// workload-specific size knob, Workers as the stack parallelism.
type Params = workloads.Params

// Category is the paper's three-way user-perspective workload
// classification.
type Category = workloads.Category

// The workload categories of Table 2.
const (
	Online   = workloads.Online
	Offline  = workloads.Offline
	Realtime = workloads.Realtime
)

// StackType classifies a software stack.
type StackType = stacks.Type

// The stack types workloads run on.
const (
	StackMapReduce = stacks.TypeMapReduce
	StackDBMS      = stacks.TypeDBMS
	StackNoSQL     = stacks.TypeNoSQL
	StackStreaming = stacks.TypeStreaming
	StackGraph     = stacks.TypeGraph
)

// Collector gathers a workload run's measurements: latency observations
// per operation and named counters, merged into a Result snapshot.
type Collector = metrics.Collector

// NewCollector returns a collector for one workload run.
func NewCollector(name string) *Collector { return metrics.NewCollector(name) }

// Result is one workload run's measurement snapshot.
type Result = metrics.Result

// OpStats summarizes one operation's latency distribution.
type OpStats = metrics.OpStats

// EnergyModel estimates energy from wall/active time (§3.1's
// non-performance metric family).
type EnergyModel = metrics.EnergyModel

// CostModel estimates dollar cost from wall time.
type CostModel = metrics.CostModel

// Default metric models, usable directly in a Scenario.
var (
	DefaultEnergyModel = metrics.DefaultEnergyModel
	DefaultCostModel   = metrics.DefaultCostModel
)

// Event is one streamed engine progress report; subscribe with WithEvents.
type Event = engine.Event

// EventKind labels a progress event.
type EventKind = engine.EventKind

// The event kinds streamed during a run.
const (
	EventTaskStart = engine.EventTaskStart
	EventRepDone   = engine.EventRepDone
	EventTaskDone  = engine.EventTaskDone
)

// RepSummary summarizes a statistic across a workload's repetitions.
type RepSummary = engine.RepSummary

// LoadStats is one open-loop run's latency-under-load digest: offered vs
// achieved rate, and latency measured from each operation's intended start
// (queueing included — immune to coordinated omission) alongside the
// service-time view from its actual start. Produced when a scenario or one
// of its entries sets a rate; found on WorkloadResult.Load.
type LoadStats = loadgen.Stats

// LatencySummary is one latency distribution digest (mean, p50/p95/p99,
// max).
type LatencySummary = loadgen.LatencySummary

// Arrivals lists the built-in open-loop arrival process names, usable in
// Scenario.Arrival and Entry.Arrival: "constant", "poisson", "bursty",
// "ramp", "replay" (schedules materialized from a recorded corpus trace;
// see Scenario.Trace).
func Arrivals() []string { return loadgen.Processes() }

// Pattern declares a composed workload as an operation mix over a named
// corpus — the Spec v2 way to benchmark an operation pattern that no
// built-in workload covers. Set it on Entry.Pattern; the scenario planner
// compiles it into a Workload whose operation stream is chunk-partitioned
// and byte-identical at any worker count. See docs/SCENARIO.md for the
// field reference.
type Pattern = opcompose.Pattern

// OpWeight is one weighted operation of a pattern or phase.
type OpWeight = opcompose.OpWeight

// PatternPhase is one phase of a composed pattern: its own operation mix,
// share of the operation stream, and optional pacing rate.
type PatternPhase = opcompose.Phase

// Operation is one named operation of the pattern vocabulary. Apply
// executes it once against the per-chunk context and returns a
// deterministic fingerprint that folds into the composed workload's
// pattern digest.
type Operation = opcompose.Operation

// OpContext is the deterministic execution context an Operation runs in.
type OpContext = opcompose.OpContext

// RegisterOperation adds a custom operation to the pattern vocabulary.
// The built-in primitives (Operations' canonical prefix) cannot be
// replaced: a pattern naming them must mean the same thing everywhere.
func RegisterOperation(op Operation) error { return opcompose.Register(op) }

// Operations returns every operation name usable in a Pattern: the
// primitive vocabulary ("filter", "aggregate", "join", "scan",
// "transform", "put", "get") in canonical order, then registered
// extensions sorted.
func Operations() []string { return opcompose.Operations() }

// DataGenStat reports one standalone data-generation run: corpus shape,
// wall time, achieved rate and the SHA-256 digest of the generated bytes.
// Equal digests across worker counts are the determinism contract made
// visible.
type DataGenStat = datagen.Stat

// ChunkedGenerator is a corpus generator family that plans its output as
// independent chunks; implement and register it with RegisterDataGenerator
// to add custom corpora to DataGen and the CLI.
type ChunkedGenerator = datagen.Chunked

// DataGenOptions configures a DataGen run. Zero values mean scale 1, seed
// 0, one worker per CPU.
type DataGenOptions struct {
	// Scale is the corpus size knob; each generator documents its unit
	// (documents, rows, edges, events, records per scale).
	Scale int
	// Workers bounds the chunk worker pool. Output bytes are identical at
	// any setting; only the wall time changes.
	Workers int
	// Seed derives every chunk's RNG, making the corpus reproducible.
	Seed uint64
}

// DataGen runs the named chunk-parallel corpus generator end to end —
// plan, generate on the bounded worker pool, assemble — and returns its
// timing evidence. Generator names are listed by DataGenerators; the
// built-ins cover the paper's data sources: "text", "table", "graph",
// "stream", "weblog".
func DataGen(name string, o DataGenOptions) (DataGenStat, error) {
	cg, ok := datagen.Lookup(name)
	if !ok {
		return DataGenStat{}, fmt.Errorf("bdbench: unknown data generator %q (have: %v)", name, datagen.Generators())
	}
	return datagen.BuildStat(cg, o.Seed, o.Scale, o.Workers)
}

// DataGenerators returns the registered corpus generator names, sorted.
func DataGenerators() []string { return datagen.Generators() }

// RegisterDataGenerator adds a custom corpus generator family under its
// Name, replacing any previous registration.
func RegisterDataGenerator(cg ChunkedGenerator) { datagen.Register(cg) }

// Suite is one emulated benchmark effort: data generator capabilities plus
// a workload inventory. Register custom suites with RegisterSuite.
type Suite = suites.Suite

// WorkloadRow is one suite inventory row: a category with its example
// workload names and runnable bindings.
type WorkloadRow = suites.WorkloadRow

// DatasetSpec describes one data set a suite can generate.
type DatasetSpec = suites.DatasetSpec

// SourceKind names a data source (tables, texts, graphs, ...).
type SourceKind = suites.SourceKind
