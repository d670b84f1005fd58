// Package bdbench is a reference implementation of the benchmark
// methodology proposed in Rui Han and Xiaoyi Lu, "On Big Data
// Benchmarking" (2014).
//
// The paper argues that credible big-data benchmarks must (1) generate data
// preserving the 4V properties — volume, velocity, variety, veracity — and
// (2) generate tests from abstract operations and workload patterns so the
// same benchmark compares systems of the same and of different types. This
// module builds that framework end to end, plus every substrate it needs:
//
//   - internal/datagen/...   4V data generators (LDA text, profiled tables,
//     Kronecker/BA graphs, rate-controlled streams, web logs, resumes,
//     media) and the §5.1 veracity metrics;
//   - internal/testgen       abstract operations, workload patterns,
//     prescriptions and stack binders (Figure 4);
//   - internal/stacks/...    five simulated software stacks: MapReduce,
//     relational DBMS, NoSQL store, streaming dataflow, BSP graph engine;
//   - internal/workloads/... the workload inventory of the paper's Table 2
//     (micro, search, social, e-commerce, OLTP, relational, streaming);
//   - internal/suites        executable emulations of the ten surveyed
//     benchmark suites, from which Tables 1 and 2 are re-derived by
//     measurement, whose rows are the built-in workload inventory, plus
//     the layered architecture of Figure 2 and the data generation
//     process of Figure 3 as executable artifacts;
//   - internal/engine        the concurrent execution layer: a bounded
//     worker pool with warmup/repetition control, per-run deadlines, panic
//     isolation and streaming progress events — seed-deterministic at any
//     parallelism — plus an open-loop task mode for latency-under-load
//     measurement;
//   - internal/loadgen       open-loop load generation: pluggable arrival
//     processes (constant, Poisson, bursty, ramp) scheduling operation
//     start times independently of completions, with latency recorded
//     from intended starts so coordinated omission cannot hide queueing;
//   - internal/scenario      the composition layer: registry, declarative
//     scenario specs, the five-step runner and the reporter contract.
//
// This package is the public API over those substrates. The registry
// (Register, RegisterSuite, DefaultRegistry) makes workloads and suites
// addressable by name — the default registry is seeded from the built-in
// suites' rows, and custom Workloads (including ones built from
// abstract-test prescriptions via NewPrescriptionWorkload) join it through
// Register. A Scenario is a
// validated, JSON-round-trippable spec that composes workloads across any
// suites with per-entry overrides; Run executes it on the concurrent
// engine with functional options (WithEvents, WithRegistry,
// WithDataProbes, WithRunOutput) — offered load is part of the Scenario
// (Rate/Arrival/Duration/Trace, scenario-wide or per entry), so a
// throughput-vs-latency sweep is a scenario with one entry per rate;
// Reporters export the outcome as text, markdown or JSON.
// The datagen/... and stacks/... directories re-export the data
// generators and simulated stacks for direct use. Corpus generation is
// chunked and parallel (DataGen, DataGenerators, RegisterDataGenerator):
// chunk RNGs derive from (seed, chunk index), so output bytes are
// identical at any worker count and data-preparation wall time is
// reported as a first-class metric (Result.DataPrep).
//
// Entry points: the bdbench CLI (cmd/bdbench) regenerates every table and
// figure and runs scenario spec files; the examples directory demonstrates
// the public API on domain scenarios (and imports nothing internal);
// bench_test.go maps each experiment to a testing.B benchmark.
package bdbench

// Version is the release version of the bdbench module.
const Version = "1.16.0"
