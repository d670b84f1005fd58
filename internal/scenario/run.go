package scenario

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/bdbench/bdbench/internal/datagen/veracity"
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/suites"
	"github.com/bdbench/bdbench/internal/workloads"
)

// Step names the five steps of the paper's Figure 1 benchmarking process.
type Step string

// The benchmarking process steps.
const (
	StepPlanning       Step = "planning"
	StepDataGeneration Step = "data generation"
	StepTestGeneration Step = "test generation"
	StepExecution      Step = "execution"
	StepAnalysis       Step = "analysis & evaluation"
)

// StepTrace records one executed step.
type StepTrace struct {
	Step     Step          `json:"step"`
	Detail   string        `json:"detail"`
	Duration time.Duration `json:"duration"`
}

// Result is the outcome of one selected workload, with its provenance.
type Result struct {
	// Suite is the inventory the workload was selected from ("" when it was
	// selected from the registry at large).
	Suite    string             `json:"suite,omitempty"`
	Workload string             `json:"workload"`
	Category workloads.Category `json:"category"`
	Domain   string             `json:"domain,omitempty"`
	// Result is the representative measurement: the median-throughput
	// repetition when the engine ran several.
	Result metrics.Result `json:"result"`
	// Reps holds every measured repetition in execution order.
	Reps []metrics.Result `json:"reps,omitempty"`
	// Throughput summarizes ops/s across the successful repetitions.
	Throughput engine.RepSummary `json:"throughput"`
	// Load carries the latency-under-load statistics for workloads run in
	// open-loop mode (a scenario or entry rate was set); nil otherwise.
	Load *loadgen.Stats `json:"load,omitempty"`
	// Err is the first error observed across repetitions; Error carries its
	// message for exporters.
	Err   error  `json:"-"`
	Error string `json:"error,omitempty"`
}

// SuiteProbe carries the data-generation step's evidence for one suite:
// the volume scaling probe and the measured §5.1 veracity per source.
type SuiteProbe struct {
	Suite          string                  `json:"suite"`
	Volume         suites.VolumeClass      `json:"volume"`
	VolumeEvidence []suites.VolumeEvidence `json:"volume_evidence,omitempty"`
	Veracity       veracity.Level          `json:"veracity"`
	Sources        []suites.SourceVeracity `json:"sources,omitempty"`
}

// Outcome is the full result of one scenario run.
type Outcome struct {
	// Spec is the normalized scenario that actually ran.
	Spec  Spec        `json:"scenario"`
	Steps []StepTrace `json:"steps"`
	// Results carries one entry per selected workload, in entry order.
	Results []Result `json:"results"`
	// Summary is the Analysis step's digest: per-category mean ops/s over
	// the successful workloads. The two execution modes measure different
	// units (closed-loop: user operations/s; open-loop: achieved workload
	// executions/s), so a category never averages across modes: categories
	// with any closed-loop results summarize those, all-open-loop
	// categories summarize achieved rates.
	Summary map[workloads.Category]float64 `json:"summary"`
	// Probes holds per-suite data-generation evidence when probing was
	// requested, one entry per distinct suite in the selection.
	Probes []SuiteProbe `json:"probes,omitempty"`
	// Failures counts workloads whose every repetition failed or errored.
	Failures int `json:"failures"`
	// Degraded lists the slices of a distributed run whose results were
	// permanently lost (a shard no agent could complete); empty for local
	// runs and for distributed runs that completed everywhere. The lost
	// tasks are also counted in Failures — Degraded records *why*.
	Degraded []string `json:"degraded,omitempty"`
}

// VeracityLevel combines the probed suites' veracity levels: the best level
// any probed generator achieved.
func (o *Outcome) VeracityLevel() veracity.Level {
	best := veracity.LevelUnconsidered
	for _, p := range o.Probes {
		for _, d := range p.Sources {
			switch d.Scores.Level {
			case veracity.LevelConsidered:
				best = veracity.LevelConsidered
			case veracity.LevelPartial:
				if best == veracity.LevelUnconsidered {
					best = veracity.LevelPartial
				}
			}
		}
	}
	return best
}

// Reporter renders a scenario outcome in one output format. The text,
// markdown and JSON reporters live in internal/report and are exposed by
// the public bdbench package.
type Reporter interface {
	// Format names the reporter ("text", "markdown", "json").
	Format() string
	// Report writes the rendered outcome to w.
	Report(w io.Writer, o *Outcome) error
}

// Executor runs the Execution step's resolved tasks and returns one
// TaskResult per task, in task order — the seam a distributed coordinator
// replaces. n is the normalized spec the tasks were resolved from — what a
// distributed executor sends its agents; cfg is the engine configuration
// a local run would use. The degraded return lists slices whose results
// were permanently lost (their TaskResults must still be present, with Err
// set); a non-nil error aborts the run as a whole — reserved for total
// failures such as a cancelled context, not per-task errors.
//
// The default executor is the in-process engine. Everything around Step 4
// (planning, probes, analysis, artifact encoding) runs the same code either
// way, which is what makes a distributed run's artifact byte-identical to a
// local run's for the same deterministic inputs.
type Executor func(ctx context.Context, n Spec, tasks []engine.Task, cfg engine.Config) (results []engine.TaskResult, degraded []string, err error)

// Options tunes a Run beyond what the spec declares.
type Options struct {
	// Registry resolves the spec's names; nil means Default().
	Registry *Registry
	// OnEvent, when set, receives the engine's streaming progress events.
	OnEvent func(engine.Event)
	// ProbeData enables the data-generation step's volume and veracity
	// probes over every distinct suite in the selection (the full Figure 1
	// process). Without it the step only records the generators in play.
	ProbeData bool
	// RunOutput, when set, makes the run a durable artifact: raw per-op
	// latency capture is enabled on the engine, and the finished outcome —
	// including every captured stream — is encoded as a runstore blob at
	// this path. The blob is written even when workloads fail, so a failing
	// run still leaves evidence.
	RunOutput string
	// SampleCapacity bounds the capture buffers, per operation cell, when
	// RunOutput is set (metrics.DefaultSampleCapacity when zero). Positive
	// with no RunOutput enables capture without writing a file (the streams
	// surface on each Result).
	SampleCapacity int
	// ToolVersion stamps the artifact's writer (bdbench.Version through the
	// public API).
	ToolVersion string
	// Execute, when set, replaces the Execution step's direct engine call —
	// the distributed coordinator's entry point. Nil runs the in-process
	// engine.
	Execute Executor
	// Now, when set, is the run's one clock: step-trace durations, the
	// artifact's CreatedUnix, and everything the engine times
	// (engine.Config.Now) read it — the determinism seam equivalence tests
	// freeze so elapsed-derived fields reproduce exactly. Nil means time.Now.
	Now func() time.Time
}

// Run executes the five-step benchmarking process for the spec: validate
// and resolve the selection (Planning), probe or note the data generators
// (Data Generation), materialize the inventory (Test Generation), schedule
// it on the concurrent engine (Execution), and summarize (Analysis).
//
// Workload failures do not stop the run; they are reported per result and
// summarized in the returned error. A cancelled context aborts before the
// potentially expensive probes, and makes in-flight workload runs fail fast
// with the context's error.
func Run(ctx context.Context, spec Spec, opts Options) (*Outcome, error) {
	reg := opts.Registry
	if reg == nil {
		reg = Default()
	}
	n := spec.Normalized()
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	out := &Outcome{Spec: n}
	record := func(s Step, detail string, t0 time.Time) {
		out.Steps = append(out.Steps, StepTrace{Step: s, Detail: detail, Duration: now().Sub(t0)})
	}

	// Step 1: Planning — validate the spec and resolve the selection.
	t0 := now()
	tasks, err := n.Tasks(reg)
	if err != nil {
		return nil, err
	}
	record(StepPlanning, fmt.Sprintf("object=%q entries=%d workloads=%d scale=%d seed=%d",
		n.Name, len(n.Entries), len(tasks), n.Scale, n.Seed), t0)

	// Step 2: Data generation — probe each distinct suite's generators
	// (volume and veracity evidence); workloads regenerate their own inputs
	// at run time from the same seeds. A cancelled context aborts before
	// the (potentially expensive) probes run.
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	t1 := now()
	probed := map[string]bool{}
	var suiteNames []string
	for _, t := range tasks {
		if t.Suite != "" && !probed[t.Suite] {
			probed[t.Suite] = true
			suiteNames = append(suiteNames, t.Suite)
		}
	}
	if opts.ProbeData {
		for _, name := range suiteNames {
			suite, _ := reg.Suite(name)
			volume, volumeEvidence := suites.ProbeVolume(suite)
			level, details, err := suites.ProbeVeracity(suite, n.Seed)
			if err != nil {
				return nil, fmt.Errorf("scenario: data generation: %w", err)
			}
			out.Probes = append(out.Probes, SuiteProbe{
				Suite:          name,
				Volume:         volume,
				VolumeEvidence: volumeEvidence,
				Veracity:       level,
				Sources:        details,
			})
		}
		record(StepDataGeneration, fmt.Sprintf("probed %d suite(s), veracity=%s", len(out.Probes), out.VeracityLevel()), t1)
	} else {
		record(StepDataGeneration, fmt.Sprintf("%d suite(s) in play; probes skipped, workloads generate inputs from seed %d",
			len(suiteNames), n.Seed), t1)
	}

	// Step 3: Test generation — the inventory is already materialized by
	// resolution; record its shape.
	t2 := now()
	cats := map[workloads.Category]int{}
	for _, t := range tasks {
		cats[t.Category]++
	}
	record(StepTestGeneration, fmt.Sprintf("%d workloads across %d categories", len(tasks), len(cats)), t2)

	// Step 4: Execution — the concurrent engine schedules the selection
	// onto a bounded worker pool with the spec's repetition and deadline
	// settings (plus per-entry repetition overrides).
	t3 := now()
	engTasks, cfg := n.EngineInputs(tasks)
	cfg.OnEvent = opts.OnEvent
	cfg.Now = opts.Now
	if opts.SampleCapacity > 0 {
		cfg.SampleCap = opts.SampleCapacity
	} else if opts.RunOutput != "" {
		cfg.SampleCap = metrics.DefaultSampleCapacity
	}
	execute := opts.Execute
	if execute == nil {
		execute = func(ctx context.Context, _ Spec, tasks []engine.Task, cfg engine.Config) ([]engine.TaskResult, []string, error) {
			return engine.Run(ctx, tasks, cfg), nil, nil
		}
	}
	tr, degraded, execErr := execute(ctx, n, engTasks, cfg)
	if execErr != nil {
		return nil, fmt.Errorf("scenario: execution: %w", execErr)
	}
	if len(tr) != len(engTasks) {
		return nil, fmt.Errorf("scenario: execution: executor returned %d results for %d tasks", len(tr), len(engTasks))
	}
	out.Degraded = degraded
	out.Results = make([]Result, len(tr))
	for i, r := range tr {
		out.Results[i] = Result{
			Suite:      tasks[i].Suite,
			Workload:   r.Workload,
			Category:   r.Category,
			Domain:     tasks[i].Workload.Domain(),
			Result:     r.Median,
			Throughput: r.Throughput,
			Load:       r.Load,
			Err:        r.Err,
		}
		if r.Err != nil {
			out.Results[i].Error = r.Err.Error()
		}
		for _, rep := range r.Reps {
			out.Results[i].Reps = append(out.Results[i].Reps, rep.Result)
		}
	}
	execDetail := fmt.Sprintf("%d workloads executed (reps=%d warmup=%d timeout=%v)",
		len(out.Results), cfg.Reps, cfg.Warmup, cfg.Timeout)
	if n.openLoop() {
		execDetail = fmt.Sprintf("%d workloads executed (open-loop: rate=%g arrival=%s duration=%v warmup=%d)",
			len(out.Results), n.Rate, n.Arrival, time.Duration(n.Duration), cfg.Warmup)
	}
	record(StepExecution, execDetail, t3)

	// Step 5: Analysis & evaluation — energy/cost models and the
	// per-category digest. Closed-loop throughput (user ops/s) and
	// open-loop achieved rate (workload executions/s) are different units,
	// so they are accumulated separately and never averaged together: a
	// category summarizes its closed-loop results when it has any, and its
	// achieved rates only when it ran entirely open-loop.
	t4 := now()
	out.Summary = map[workloads.Category]float64{}
	type acc struct {
		sum float64
		n   int
	}
	closed := map[workloads.Category]*acc{}
	open := map[workloads.Category]*acc{}
	add := func(m map[workloads.Category]*acc, cat workloads.Category, v float64) {
		a := m[cat]
		if a == nil {
			a = &acc{}
			m[cat] = a
		}
		a.sum += v
		a.n++
	}
	for i := range out.Results {
		r := &out.Results[i]
		if r.Err != nil {
			out.Failures++
			continue
		}
		if n.Energy.Nodes > 0 || n.Cost.Nodes > 0 {
			metrics.Apply(&r.Result, n.Energy, n.Cost, r.Result.Elapsed)
		}
		if r.Load != nil {
			add(open, r.Category, r.Load.Achieved)
		} else {
			add(closed, r.Category, r.Result.Throughput)
		}
	}
	for cat, a := range open {
		out.Summary[cat] = a.sum / float64(a.n)
	}
	for cat, a := range closed {
		out.Summary[cat] = a.sum / float64(a.n) // closed-loop wins a mixed category
	}
	record(StepAnalysis, fmt.Sprintf("%d categories summarized, %d failures", len(out.Summary), out.Failures), t4)

	// Close the bracket: persist the run artifact. A failing run still
	// writes its blob — the evidence of the failure is worth keeping — but a
	// failed artifact write is the run's error only when the run itself
	// succeeded.
	var artErr error
	if opts.RunOutput != "" {
		artErr = writeArtifact(opts.RunOutput, out, opts.ToolVersion, now().Unix())
	}
	if out.Failures > 0 {
		return out, fmt.Errorf("scenario: %d workload(s) failed", out.Failures)
	}
	if artErr != nil {
		return out, artErr
	}
	return out, nil
}
