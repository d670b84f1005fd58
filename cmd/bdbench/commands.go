package main

import (
	"context"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/profiling"
	"github.com/bdbench/bdbench/internal/testgen"
)

// scenarioFlags is the one shared definition of the engine and sizing
// knobs used by the commands that run workload selections (run, figure1,
// experiments). It registers the flags and layers them onto a Scenario —
// all of them when the scenario starts from CLI defaults, only the
// explicitly set ones when it was loaded from a spec file (so a spec's
// values win unless the user overrides them).
type scenarioFlags struct {
	fs             *flag.FlagSet
	scale          *int
	seed           *uint64
	stackWorkers   *int
	datagenWorkers *int
	workers        *int
	reps           *int
	warmup         *int
	timeout        *time.Duration
	rate           *float64
	arrival        *string
	duration       *time.Duration
	trace          *string
	progress       *bool
}

func addScenarioFlags(fs *flag.FlagSet) *scenarioFlags {
	return &scenarioFlags{
		fs:             fs,
		scale:          fs.Int("scale", 0, "workload scale (0 = scenario default)"),
		seed:           fs.Uint64("seed", 42, "workload seed"),
		stackWorkers:   fs.Int("stack-workers", 0, "per-workload stack parallelism (0 = scenario default)"),
		datagenWorkers: fs.Int("datagen-workers", 0, "chunk workers preparing workload input (0 = one per CPU)"),
		workers:        fs.Int("workers", 0, "concurrent workloads in the engine pool (0 = one per CPU)"),
		reps:           fs.Int("reps", 1, "measured repetitions per workload (median reported)"),
		warmup:         fs.Int("warmup", 0, "unmeasured warmup runs per workload"),
		timeout:        fs.Duration("timeout", 0, "per-run deadline, e.g. 30s (0 = none)"),
		rate:           fs.Float64("rate", 0, "open-loop offered load in ops/s (0 = closed-loop reps mode)"),
		arrival:        fs.String("arrival", "", "open-loop arrival process: "+strings.Join(bdbench.Arrivals(), "|")),
		duration:       fs.Duration("duration", 0, "open-loop scheduling window, e.g. 10s (requires -rate)"),
		trace:          fs.String("trace", "", "corpus whose recorded timestamps drive the replay arrival (requires -rate; implies -arrival replay)"),
		progress:       fs.Bool("progress", false, "stream per-repetition progress to stderr"),
	}
}

// appliers is the single flag-name → scenario-field mapping both apply
// variants consume, so a new knob cannot be wired into one and silently
// dropped by the other.
func (sf *scenarioFlags) appliers() map[string]func(*bdbench.Scenario) {
	return map[string]func(*bdbench.Scenario){
		"scale":           func(s *bdbench.Scenario) { s.Scale = *sf.scale },
		"seed":            func(s *bdbench.Scenario) { s.Seed = *sf.seed },
		"stack-workers":   func(s *bdbench.Scenario) { s.Workers = *sf.stackWorkers },
		"datagen-workers": func(s *bdbench.Scenario) { s.DatagenWorkers = *sf.datagenWorkers },
		"workers":         func(s *bdbench.Scenario) { s.Parallel = *sf.workers },
		"reps":            func(s *bdbench.Scenario) { s.Reps = *sf.reps },
		"warmup":          func(s *bdbench.Scenario) { s.Warmup = *sf.warmup },
		"timeout":         func(s *bdbench.Scenario) { s.Timeout = bdbench.Duration(*sf.timeout) },
		"rate":            func(s *bdbench.Scenario) { s.Rate = *sf.rate },
		"arrival":         func(s *bdbench.Scenario) { s.Arrival = *sf.arrival },
		"duration":        func(s *bdbench.Scenario) { s.Duration = bdbench.Duration(*sf.duration) },
		"trace":           func(s *bdbench.Scenario) { s.Trace = *sf.trace },
	}
}

// finish applies the cross-flag implications after the appliers ran in
// either variant: a trace only makes sense under the replay arrival, so
// -trace alone selects it rather than failing validation.
func (sf *scenarioFlags) finish(s *bdbench.Scenario) {
	if s.Trace != "" && s.Arrival == "" {
		s.Arrival = "replay"
	}
}

// apply layers every knob onto the scenario.
func (sf *scenarioFlags) apply(s *bdbench.Scenario) {
	for _, fn := range sf.appliers() {
		fn(s)
	}
	sf.finish(s)
}

// applySet layers only the flags the user explicitly set onto the
// scenario, preserving the rest of a loaded spec (or an experiment's
// baseline configuration).
func (sf *scenarioFlags) applySet(s *bdbench.Scenario) {
	appliers := sf.appliers()
	sf.fs.Visit(func(f *flag.Flag) {
		if fn, ok := appliers[f.Name]; ok {
			fn(s)
		}
	})
	sf.finish(s)
}

// options derives the run options the knobs imply.
func (sf *scenarioFlags) options() []bdbench.Option {
	var opts []bdbench.Option
	if *sf.progress {
		opts = append(opts, bdbench.WithEvents(printEvent))
	}
	return opts
}

// profileFlags is the shared -profile/-profile-dir pair offered by every
// command that does real work (run, loadcurve, datagen); each brackets its
// work with profiled.
type profileFlags struct {
	spec *string
	dir  *string
}

func addProfileFlags(fs *flag.FlagSet) *profileFlags {
	return &profileFlags{
		spec: fs.String("profile", "", "write profiles, comma-separated: "+strings.Join(profiling.Modes(), "|")),
		dir:  fs.String("profile-dir", ".", "directory for profile output (cpu.pprof, mem.pprof, allocs.pprof, trace.out)"),
	}
}

// profiled runs a command's work between the start and the stop of the
// profilers pf asks for; the heap profiles are written when work returns.
// An unknown mode fails before work starts, and a profile that cannot be
// written is the command's error only when work succeeded.
func profiled[T any](pf *profileFlags, work func() (T, error)) (out T, err error) {
	modes, err := profiling.Parse(*pf.spec)
	if err != nil {
		return out, err
	}
	prof, err := profiling.Start(*pf.dir, modes)
	if err != nil {
		return out, err
	}
	out, err = work()
	if perr := prof.Stop(); perr != nil && err == nil {
		err = perr
	}
	return out, err
}

// printEvent renders one engine progress event; the engine serializes
// calls, so plain writes are safe.
func printEvent(e bdbench.Event) {
	switch e.Kind {
	case bdbench.EventTaskStart:
		fmt.Fprintf(stderr, "engine: %-24s start\n", e.Workload)
	case bdbench.EventRepDone:
		label := fmt.Sprintf("rep %d", e.Rep+1)
		if e.Warmup {
			label = "warmup"
		}
		status := "ok"
		if e.Err != nil {
			status = e.Err.Error()
		}
		fmt.Fprintf(stderr, "engine: %-24s %-8s %-12v %s\n",
			e.Workload, label, e.Elapsed.Round(time.Millisecond), status)
	case bdbench.EventTaskDone:
		fmt.Fprintf(stderr, "engine: %-24s done in %v\n",
			e.Workload, e.Elapsed.Round(time.Millisecond))
	}
}

func cmdTable1(args []string) error {
	fs := newFlagSet("table1")
	seed := fs.Uint64("seed", 900, "probe seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rows, err := bdbench.DeriveTable1(*seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Table 1 — comparison of data generation techniques (derived from probes)")
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, bdbench.FormatTable1(rows))
	fmt.Fprintln(stdout)
	diffs := bdbench.CompareTable1ToPaper(rows)
	if len(diffs) == 0 {
		fmt.Fprintln(stdout, "agreement with the paper: 10/10 surveyed suites match on every axis")
	} else {
		fmt.Fprintf(stdout, "disagreements with the paper (%d):\n", len(diffs))
		for _, d := range diffs {
			fmt.Fprintln(stdout, "  -", d)
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "veracity evidence (divergence; floor = resample, base = veracity-unaware):")
	for _, r := range rows {
		for _, d := range r.VeracityEvidence {
			fmt.Fprintf(stdout, "  %-30s %-8s score=%.4f floor=%.4f base=%.4f -> %s\n",
				r.Benchmark, d.Source, d.Scores.Score, d.Scores.NoiseFloor, d.Scores.Baseline, d.Scores.Level)
		}
	}
	return nil
}

func cmdTable2(args []string) error {
	rows := bdbench.DeriveTable2()
	fmt.Fprintln(stdout, "Table 2 — comparison of benchmarking techniques (derived from inventories)")
	fmt.Fprintln(stdout)
	fmt.Fprint(stdout, bdbench.FormatTable2(rows))
	fmt.Fprintln(stdout)
	diffs := bdbench.CompareTable2ToPaper(rows)
	if len(diffs) == 0 {
		fmt.Fprintln(stdout, "agreement with the paper: all surveyed suites expose the published workload categories")
	} else {
		for _, d := range diffs {
			fmt.Fprintln(stdout, "  -", d)
		}
	}
	return nil
}

func cmdFigure1(args []string) error {
	fs := newFlagSet("figure1")
	suite := fs.String("suite", "GridMix", "suite to run through the process")
	sf := addScenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Figure 1 — benchmarking process for big data systems")
	sc := bdbench.SuiteScenario(*suite)
	sc.Name = "figure1 demonstration"
	sc.Energy = bdbench.DefaultEnergyModel
	sc.Cost = bdbench.DefaultCostModel
	sf.apply(&sc)
	out, err := bdbench.Run(context.Background(), sc,
		append(sf.options(), bdbench.WithDataProbes())...)
	if err != nil && out == nil {
		return err
	}
	for _, s := range out.Steps {
		fmt.Fprintf(stdout, "  step %-24s %-55s %v\n", s.Step, s.Detail, s.Duration.Round(time.Millisecond))
	}
	fmt.Fprintln(stdout)
	var results []bdbench.Result
	for _, r := range out.Results {
		results = append(results, r.Result)
	}
	fmt.Fprint(stdout, bdbench.FormatResults(results))
	return err
}

func cmdFigure2(args []string) error {
	fmt.Fprintln(stdout, "Figure 2 — layered architecture of big data benchmarks")
	fmt.Fprint(stdout, bdbench.FormatArchitecture(bdbench.Architecture()))
	return nil
}

func cmdFigure3(args []string) error {
	fs := newFlagSet("figure3")
	docs := fs.Int("docs", 500, "synthetic documents to generate")
	rows := fs.Int64("rows", 5000, "synthetic table rows to generate")
	workers := fs.Int("workers", 4, "parallel generators")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Figure 3 — the big data generation process")
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "text data type:")
	text, err := bdbench.TextDataGenProcess(1, *docs, *workers)
	if err != nil {
		return err
	}
	for _, s := range text.Steps {
		fmt.Fprintf(stdout, "  step %d %-26s %-45s %v\n", s.Step, s.Name, s.Detail, s.Duration.Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "  veracity: KL(raw||synthetic) = %.4f over the word distribution\n\n", text.Divergence)
	fmt.Fprintln(stdout, "table data type:")
	tab, err := bdbench.TableDataGenProcess(2, *rows, *workers)
	if err != nil {
		return err
	}
	for _, s := range tab.Steps {
		fmt.Fprintf(stdout, "  step %d %-26s %-45s %v\n", s.Step, s.Name, s.Detail, s.Duration.Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "  veracity: mean column divergence = %.4f\n", tab.Divergence)
	return nil
}

func cmdFigure4(args []string) error {
	fs := newFlagSet("figure4")
	workers := fs.Int("workers", 4, "stack parallelism")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Figure 4 — the benchmark test generation process")
	p, _, trace, err := testgen.Generate(
		testgen.DataSpec{Source: "words", Size: 2000, Seed: 4},
		[]testgen.Step{{Op: "select", Arg: "data"}, {Op: "count"}},
		testgen.MultiPattern, "", 0,
	)
	if err != nil {
		return err
	}
	for _, s := range trace {
		fmt.Fprintf(stdout, "  step %d %-26s %-40s %v\n", s.Step, s.Name, s.Detail, s.Duration.Round(time.Millisecond))
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "prescribed tests (system view — same abstract test per stack):")
	results, err := testgen.VerifyPortability(context.Background(), p, *workers)
	if err != nil {
		return err
	}
	for _, stack := range testgen.Stacks() {
		fmt.Fprintf(stdout, "  %-10s -> %d records\n", stack, len(results[stack]))
	}
	fmt.Fprintln(stdout, "functional view holds: all stacks produced the same outcome")
	return nil
}

// runOptions is what the flags `run` and `coordinate` share resolve to
// besides the scenario itself.
type runOptions struct {
	out      string // -out: artifact path ("" = none)
	samples  int    // -samples: capture bound per op cell (0 = default)
	progress bool   // -progress: stream engine events to stderr
}

// local translates the flags into the options of an in-process bdbench.Run
// (`run`, `loadcurve`), so the CLI exercises exactly what an API caller gets.
func (ro runOptions) local() []bdbench.Option {
	var opts []bdbench.Option
	if ro.progress {
		opts = append(opts, bdbench.WithEvents(printEvent))
	}
	if ro.out != "" {
		opts = append(opts, bdbench.WithRunOutput(ro.out))
	}
	if ro.samples > 0 {
		opts = append(opts, bdbench.WithSamples(ro.samples))
	}
	return opts
}

// report prints a finished run the way every scenario-running command does:
// the outcome on stdout, degraded shards and the artifact note on stderr. A
// run that produced an outcome is reported even when it failed; its error
// is still returned.
func (ro runOptions) report(cmd string, reporter bdbench.Reporter, outcome *bdbench.Outcome, runErr error) error {
	if outcome == nil {
		return runErr
	}
	if err := reporter.Report(stdout, outcome); err != nil {
		return err
	}
	for _, note := range outcome.Degraded {
		fmt.Fprintf(stderr, "%s: degraded: %s\n", cmd, note)
	}
	if ro.out != "" {
		fmt.Fprintf(stderr, "%s: artifact written to %s\n", cmd, ro.out)
	}
	return runErr
}

// runScenario is the one path `run` and `coordinate` take from a command
// line to a reported outcome. It registers the shared selection, report and
// artifact flags on fs (the caller has added its own), parses args, builds
// the scenario — a spec file with only the explicitly set knobs layered on
// top, or a suite with all of them — handles -validate, runs the scenario
// through exec and reports it (runOptions.report).
func runScenario(fs *flag.FlagSet, args []string, exec func(bdbench.Scenario, runOptions) (*bdbench.Outcome, error)) error {
	spec := fs.String("spec", "", "scenario spec file (JSON); composes workloads across suites")
	suite := fs.String("suite", "BigDataBench", "suite to run (ignored when -spec is given)")
	format := fs.String("format", "text", "output format: "+strings.Join(bdbench.Formats(), "|"))
	validate := fs.Bool("validate", false, "validate and print the normalized scenario without running it")
	out := fs.String("out", "", "write the run as a columnar artifact (read back with show/compare)")
	samples := fs.Int("samples", 0, "raw latency samples kept per op cell (0 = default; needs -out to persist)")
	sf := addScenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var sc bdbench.Scenario
	if *spec == "" {
		sc = bdbench.SuiteScenario(*suite)
		sf.apply(&sc)
	} else {
		loaded, err := bdbench.LoadScenario(*spec)
		if err != nil {
			return err
		}
		sc = loaded
		sf.applySet(&sc)
	}
	reporter, err := bdbench.ReporterFor(*format)
	if err != nil {
		return err
	}
	if *validate {
		if err := sc.Validate(bdbench.DefaultRegistry()); err != nil {
			return err
		}
		raw, err := sc.Normalized().MarshalIndent()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, string(raw))
		return nil
	}
	ro := runOptions{out: *out, samples: *samples, progress: *sf.progress}
	outcome, runErr := exec(sc, ro)
	return ro.report(fs.Name(), reporter, outcome, runErr)
}

func cmdRun(args []string) error {
	fs := newFlagSet("run")
	pf := addProfileFlags(fs)
	return runScenario(fs, args, func(sc bdbench.Scenario, ro runOptions) (*bdbench.Outcome, error) {
		return profiled(pf, func() (*bdbench.Outcome, error) {
			return bdbench.Run(context.Background(), sc, ro.local()...)
		})
	})
}

// cmdLoadcurve sweeps a workload across increasing offered rates in
// open-loop mode — the latency-under-load headline figure. The sweep is one
// scenario: an entry per rate, run one at a time (parallel 1) so points
// never compete for the machine, reported like any other run. Its "latency
// under load" table, one row per rate, is the throughput-vs-latency curve;
// latency percentiles are measured from intended starts, so saturation
// shows up as exploding tails, not as a quietly slowed request stream.
func cmdLoadcurve(args []string) error {
	fs := newFlagSet("loadcurve")
	workload := fs.String("workload", "wordcount", "registered workload to drive (see: bdbench workloads)")
	rates := fs.String("rates", "10,25,50", "comma-separated offered rates in ops/s, swept in order")
	arrival := fs.String("arrival", "constant", "arrival process: "+strings.Join(bdbench.Arrivals(), "|"))
	duration := fs.Duration("duration", 3*time.Second, "open-loop scheduling window per rate")
	scale := fs.Int("scale", 1, "workload scale")
	stackWorkers := fs.Int("stack-workers", 0, "per-workload stack parallelism (0 = default)")
	seed := fs.Uint64("seed", 42, "workload and arrival-schedule seed")
	warmup := fs.Int("warmup", 1, "unmeasured closed-loop warmup runs before each window")
	format := fs.String("format", "text", "output format: "+strings.Join(bdbench.Formats(), "|"))
	progress := fs.Bool("progress", false, "stream engine progress to stderr")
	out := fs.String("out", "", "write the sweep as a columnar artifact with per-rate latency streams")
	pf := addProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	swept, err := parseRates(*rates)
	if err != nil {
		return err
	}
	// Reject a bad -format before the sweep runs, not after minutes of
	// benchmarking.
	reporter, err := bdbench.ReporterFor(*format)
	if err != nil {
		return err
	}
	sc := bdbench.Scenario{
		Name:     "loadcurve " + *workload,
		Arrival:  *arrival,
		Duration: bdbench.Duration(*duration),
		Scale:    *scale,
		Workers:  *stackWorkers,
		Seed:     *seed,
		Warmup:   *warmup,
		Parallel: 1,
	}
	for _, rate := range swept {
		sc.Entries = append(sc.Entries, bdbench.Entry{Workload: *workload, Rate: rate})
	}
	ro := runOptions{out: *out, progress: *progress}
	outcome, runErr := profiled(pf, func() (*bdbench.Outcome, error) {
		return bdbench.Run(context.Background(), sc, ro.local()...)
	})
	return ro.report(fs.Name(), reporter, outcome, runErr)
}

// parseRates parses the -rates flag: positive ops/s values, comma
// separated.
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("loadcurve: bad rate %q (want positive ops/s, comma separated)", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("loadcurve: no rates given")
	}
	return out, nil
}

func cmdSuites(args []string) error {
	var rows [][]string
	for _, s := range bdbench.DefaultRegistry().Suites() {
		kinds := make([]string, 0, len(s.Sources()))
		for _, k := range s.Sources() {
			kinds = append(kinds, string(k))
		}
		rows = append(rows, []string{
			s.Name, s.Ref,
			fmt.Sprintf("%d", len(s.Workloads())),
			strings.Join(kinds, ","),
			strings.Join(s.SoftwareStacks, ","),
		})
	}
	printAligned([]string{"suite", "ref", "workloads", "sources", "stacks"}, rows)
	return nil
}

func cmdWorkloads(args []string) error {
	fs := newFlagSet("workloads")
	ops := fs.Bool("ops", false, "list the operation-pattern vocabulary instead of registered workloads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ops {
		for _, name := range bdbench.Operations() {
			fmt.Fprintln(stdout, name)
		}
		return nil
	}
	var rows [][]string
	for _, w := range bdbench.DefaultRegistry().Workloads() {
		stacks := make([]string, 0, len(w.StackTypes()))
		for _, st := range w.StackTypes() {
			stacks = append(stacks, string(st))
		}
		rows = append(rows, []string{
			w.Name(), string(w.Category()), w.Domain(), strings.Join(stacks, ","),
		})
	}
	printAligned([]string{"workload", "category", "domain", "stacks"}, rows)
	return nil
}

func cmdPrescriptions(args []string) error {
	var rows [][]string
	for _, name := range testgen.Names() {
		p, err := testgen.Find(name)
		if err != nil {
			return err
		}
		steps := make([]string, len(p.Steps))
		for i, s := range p.Steps {
			steps[i] = s.Op
		}
		rows = append(rows, []string{
			p.Name, string(p.Kind), strings.Join(steps, "->"),
			fmt.Sprintf("%s/%d", p.Data.Source, p.Data.Size),
		})
	}
	printAligned([]string{"prescription", "pattern", "steps", "data"}, rows)
	return nil
}

// printAligned renders rows under headers with aligned columns.
func printAligned(headers []string, rows [][]string) {
	fmt.Fprint(stdout, bdbench.AlignedTable(headers, rows))
}
