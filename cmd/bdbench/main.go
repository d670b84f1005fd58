// Command bdbench is the benchmark suite's CLI. It regenerates every table
// and figure of "On Big Data Benchmarking" from the living code and runs
// suite inventories end to end:
//
//	bdbench table1              derive Table 1 from capability probes
//	bdbench table2              derive Table 2 from workload inventories
//	bdbench figure1 [-suite S]  run the 5-step benchmarking process
//	bdbench figure2             print the layered architecture
//	bdbench figure3             run the 4-step data generation process
//	bdbench figure4             run the 5-step test generation process
//	bdbench run -suite S        execute a suite's workload inventory
//	bdbench run -spec F.json    execute a scenario spec composing suites
//	bdbench run -rate R         execute open-loop at an offered rate
//	bdbench datagen             run one corpus generator, print timing+digest
//	bdbench loadcurve           run one workload at a sweep of offered rates
//	bdbench run -out run.blob   additionally persist the run as an artifact
//	bdbench agent               serve scenario shards for a coordinator
//	bdbench coordinate -agents U  run a scenario distributed across agents
//	bdbench show run.blob       re-render a saved run artifact
//	bdbench compare a.blob b.blob  diff two artifacts; exit nonzero on regression
//	bdbench suites              list available suite emulations
//	bdbench workloads           list the registered workload inventory
//	bdbench prescriptions       list the prescription repository
//	bdbench experiments         run the quantitative experiment set (E7-E13)
//
// It is built entirely on the public bdbench package — every command works
// the same way for an external caller of the API.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
)

// stdout and stderr are where commands write. run points them at its
// arguments, so a test drives the whole CLI — exit code included — without
// a subprocess; main passes the process streams.
var stdout, stderr io.Writer = os.Stdout, os.Stderr

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one bdbench command line and returns the process exit code:
// 0 on success, 1 when the command fails (a failed workload, a regressed
// comparison, a bad flag), 2 when there is no such command.
func run(args []string, out, errw io.Writer) int {
	stdout, stderr = out, errw
	if len(args) == 0 {
		usage()
		return 2
	}
	commands := map[string]func([]string) error{
		"table1":        cmdTable1,
		"table2":        cmdTable2,
		"figure1":       cmdFigure1,
		"figure2":       cmdFigure2,
		"figure3":       cmdFigure3,
		"figure4":       cmdFigure4,
		"run":           cmdRun,
		"datagen":       cmdDatagen,
		"loadcurve":     cmdLoadcurve,
		"agent":         cmdAgent,
		"coordinate":    cmdCoordinate,
		"compare":       cmdCompare,
		"show":          cmdShow,
		"suites":        cmdSuites,
		"workloads":     cmdWorkloads,
		"prescriptions": cmdPrescriptions,
		"experiments":   cmdExperiments,
	}
	cmd := args[0]
	if cmd == "help" || cmd == "-h" || cmd == "--help" {
		usage()
		return 0
	}
	fn, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(stderr, "bdbench: unknown command %q\n\n", cmd)
		usage()
		return 2
	}
	if err := fn(args[1:]); err != nil {
		fmt.Fprintln(stderr, "bdbench:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprint(stderr, `bdbench — a reference implementation of "On Big Data Benchmarking"

commands:
  table1          derive Table 1 (data generation techniques) from probes
  table2          derive Table 2 (benchmarking techniques) from inventories
  figure1         run the 5-step benchmarking process (use -suite)
  figure2         print the 3-layer architecture
  figure3         run the 4-step data generation process (text and table)
  figure4         run the 5-step test generation process + portability check
  run             execute a suite (-suite) or a scenario spec file (-spec)
  datagen         run one chunk-parallel corpus generator (-workload text|
                  table|graph|stream|weblog, -scale, -workers, -seed) and
                  print items/bytes/elapsed plus the corpus digest; the
                  digest is identical at any -workers value
  loadcurve       run one workload open-loop at each of -rates, one rate at
                  a time: a scenario with an entry per rate, reported like
                  any run — its "latency under load" table, a row per rate,
                  is the throughput-vs-latency curve
  agent           serve scenario shards over HTTP for a coordinator
                  (-listen addr, -heartbeat period); stateless, stop with
                  an interrupt (in-flight shards get a bounded drain)
  coordinate      run a scenario with its Execution step distributed across
                  agents (-agents url,url,...); takes the run selection,
                  engine and artifact flags plus -shards; a shard is retried
                  twice on the next agents, an attempt is abandoned after
                  15 silent heartbeat periods of its agent (at least
                  100ms), and a shard no
                  agent completes degrades the run (reported, nonzero exit)
                  instead of hanging (see docs/DISTRIBUTED.md)
  show            re-render a saved run artifact (-format text|markdown|json,
                  -meta for the identity line)
  compare         diff two saved run artifacts: workload throughput (or
                  achieved-rate) deltas plus latency quantile shifts
                  recomputed from the raw streams; a regression exits
                  nonzero (-threshold, -tput-threshold, -min-delta,
                  -min-samples, -quantiles, -format)
  suites          list the emulated benchmark suites
  workloads       list the registered workload inventory
  prescriptions   list the reusable prescription repository
  experiments     run the quantitative experiment set (velocity, veracity, ...)

run selection:
  -spec F.json      scenario spec composing workloads across suites, with
                    per-entry scale/workers/seed/reps overrides
  -suite S          shorthand for a one-entry scenario selecting suite S
  -format F         output format: text, markdown or json
  -validate         validate and print the normalized scenario, then exit
  -out F.blob       persist the run as a versioned columnar artifact: full
                    per-op latency streams plus spec digest, seed and
                    environment (see docs/RESULTS.md); read it back with
                    show, diff it with compare (loadcurve takes -out too and
                    writes the same kind of artifact)
  -samples N        most raw latency samples kept per op cell per repetition
                    (default 65536: a ceiling, not memory reserved; extra
                    observations count as dropped)

engine knobs (run, figure1, experiments — shared):
  -scale N          workload input scale
  -seed N           workload seed
  -workers N        concurrent workloads in the engine pool (0 = one per CPU)
  -reps N           measured repetitions per workload; the median is reported
  -warmup N         unmeasured warmup runs per workload
  -timeout D        per-run deadline (e.g. 30s); a run still going at it is
                    cancelled through its context and reported failed
  -stack-workers N  parallelism of the simulated stack inside each workload
  -datagen-workers N  chunk workers preparing each workload's input data
                    (0 = one per CPU; pure speed knob, bytes identical)
  -progress         stream per-repetition progress to stderr

open-loop load (run, figure1, experiments; loadcurve has its own flags):
  -rate R           offered load in ops/s; switches execution to open-loop
                    (arrivals scheduled independently of completions,
                    latency measured from intended start)
  -arrival P        arrival process: constant, poisson, bursty, ramp or replay
  -trace C          corpus whose recorded timestamps drive the replay arrival
                    (requires -rate; implies -arrival replay)
  -duration D       scheduling window per workload, e.g. 10s

profiling (run, loadcurve, datagen):
  -profile M        write Go profiles around the whole command; M is a
                    comma-separated subset of cpu, mem, allocs, trace
  -profile-dir D    where the files land (cpu.pprof, mem.pprof,
                    allocs.pprof, trace.out; default "."); inspect with
                    "go tool pprof" or "go tool trace"

Workload outputs (counters, verification) are seed-deterministic at any
-workers setting; only timings vary with parallelism. Arrival schedules are
seed-deterministic too: same seed and rate, same intended start times.
`)
}

func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}
