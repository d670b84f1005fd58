package main

import (
	"bytes"
	"context"
	"embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/report"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/workloads"
)

//go:embed specs/*.json
var specFS embed.FS

// loadSpec reads specs/<name>.json and stamps the run's seed and scales
// into it.
func loadSpec(name string, opts options) (bdbench.Scenario, []byte, error) {
	raw, err := specFS.ReadFile("specs/" + name + ".json")
	if err != nil {
		return bdbench.Scenario{}, nil, err
	}
	spec, err := bdbench.ParseScenario(raw)
	if err != nil {
		return bdbench.Scenario{}, nil, fmt.Errorf("specs/%s.json: %w", name, err)
	}
	spec.Seed = opts.seed
	spec.Scale = opts.scale(spec.Scale)
	for i, e := range spec.Entries {
		spec.Entries[i].Scale = opts.scale(e.Scale)
	}
	return spec, raw, nil
}

// tracedWorkload records a span around every Run of the workload it wraps:
// the workload body, as opposed to everything the harness does around it.
type tracedWorkload struct {
	workloads.Workload
	rec *Recorder
}

func (t tracedWorkload) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	ctx, end := t.rec.Start(ctx, "workload.run", t.Name())
	defer end()
	return t.Workload.Run(ctx, p, c)
}

// scenarioRun is one spec run start to finish the way `bdbench run -spec
// -out` does it: plan, execute, build the artifact, encode it, write it,
// render the text report.
type scenarioRun struct {
	out       *bdbench.Outcome
	art       *runstore.Run
	blob      []byte
	wall, cpu time.Duration
}

// scenarioUnit runs one spec, locally or through a coordinator.
type scenarioUnit struct {
	h    *harness
	name string
	spec bdbench.Scenario
	// reg resolves the spec's names; nil means the default registry.
	reg *bdbench.Registry
	// sampleCap is the capture capacity per operation cell; 0 captures
	// nothing.
	sampleCap int
	// agents, when set, makes run go through bdbench.Coordinate.
	agents *loopback
}

// run executes the unit once as repetition rep. With a recorder, spans hang
// under one root per repetition; rec is nil for warm-ups and untraced runs.
func (u scenarioUnit) run(ctx context.Context, rec *Recorder, rep int) (*scenarioRun, error) {
	cpu0, _, err := processUsage()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	ctx, endRoot := rec.StartRoot(ctx, rep, "rep", u.name)
	run, err := u.steps(ctx, rec)
	endRoot()
	if err != nil {
		return nil, err
	}
	run.wall = time.Since(t0)
	cpu1, _, err := processUsage()
	if err != nil {
		return nil, err
	}
	run.cpu = cpu1 - cpu0
	return run, nil
}

// steps is the timed call: execute, build the artifact, encode it, write
// it, render the text report, each under a span of the repetition's root.
func (u scenarioUnit) steps(ctx context.Context, rec *Recorder) (*scenarioRun, error) {
	var out *bdbench.Outcome
	var err error
	if u.agents != nil {
		cctx, end := rec.Start(ctx, "cluster.coordinate", "")
		u.agents.begin(cctx)
		out, err = bdbench.Coordinate(cctx, u.spec, bdbench.CoordinateOptions{
			Agents:         u.agents.urls(),
			Registry:       u.reg,
			SampleCapacity: u.sampleCap,
		})
		end()
	} else {
		sctx, end := rec.Start(ctx, "scenario.run", "")
		opts := []bdbench.Option{bdbench.WithSamples(u.sampleCap)}
		if u.reg != nil {
			opts = append(opts, bdbench.WithRegistry(u.reg))
		}
		if rec != nil {
			opts = append(opts, func(o *scenario.Options) { o.Execute = tracedExecute(rec) })
		}
		out, err = bdbench.Run(sctx, u.spec, opts...)
		end()
	}
	if err != nil {
		return nil, err
	}

	_, end := rec.Start(ctx, "runstore.build", "")
	art, err := scenario.BuildArtifact(out, bdbench.Version)
	end()
	if err != nil {
		return nil, err
	}
	_, end = rec.Start(ctx, "runstore.encode", "")
	blob, err := runstore.Encode(art)
	end()
	if err != nil {
		return nil, err
	}
	_, end = rec.Start(ctx, "runstore.write", "")
	err = os.WriteFile(filepath.Join(u.h.opts.dir, u.name+".blob"), blob, 0o644)
	end()
	if err != nil {
		return nil, err
	}
	_, end = rec.Start(ctx, "report.render", "")
	var text bytes.Buffer
	err = report.TextReporter{}.Report(&text, out)
	end()
	if err != nil {
		return nil, err
	}
	return &scenarioRun{out: out, art: art, blob: blob}, nil
}

// tracedExecute is the Execution step with a span around engine.Run and
// one around every workload body.
func tracedExecute(rec *Recorder) scenario.Executor {
	return func(ctx context.Context, _ scenario.Spec, tasks []engine.Task, cfg engine.Config) ([]engine.TaskResult, []string, error) {
		ctx, end := rec.Start(ctx, "engine.run", "")
		defer end()
		wrapped := make([]engine.Task, len(tasks))
		for i, t := range tasks {
			t.Workload = tracedWorkload{Workload: t.Workload, rec: rec}
			wrapped[i] = t
		}
		return engine.Run(ctx, wrapped, cfg), nil, nil
	}
}

// userOps sums the user-level operations a result recorded.
func userOps(r metrics.Result) int64 {
	var n int64
	for _, op := range r.Ops {
		if !op.Substrate {
			n += int64(op.Count)
		}
	}
	return n
}

// latenciesOf returns every captured sample of the artifact's series that
// keep accepts, unsorted.
func latenciesOf(art *runstore.Run, keep func(runstore.Series) bool) []int64 {
	var out []int64
	for _, s := range art.Series {
		if !keep(s) {
			continue
		}
		for _, smp := range s.Samples {
			out = append(out, smp.Value)
		}
	}
	return out
}

// sortedLatenciesOf is latenciesOf, sorted for quantileNs.
func sortedLatenciesOf(art *runstore.Run, keep func(runstore.Series) bool) []int64 {
	out := latenciesOf(art, keep)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// artifactFacts are the outputs of a run that its seed determines: how many
// operations each workload recorded, the composed pattern's digest, and how
// many series and samples the artifact holds.
func artifactFacts(run *scenarioRun) map[string]string {
	facts := map[string]string{}
	for _, r := range run.out.Results {
		facts["ops."+r.Workload] = fmt.Sprint(userOps(r.Result))
		if d, ok := r.Result.Counters["pattern_digest"]; ok {
			facts["pattern_digest."+r.Workload] = fmt.Sprint(d)
		}
		if r.Load != nil {
			facts["scheduled."+r.Workload] = fmt.Sprint(r.Load.Scheduled)
		}
	}
	var samples int
	for _, s := range run.art.Series {
		if !s.Substrate {
			facts["samples."+s.Workload+"."+s.Op] = fmt.Sprint(len(s.Samples))
		}
		samples += len(s.Samples)
	}
	facts["series"] = fmt.Sprint(len(run.art.Series))
	facts["samples"] = fmt.Sprint(samples)
	return facts
}

// checkOutcome applies the checks no seed changes: nothing failed, nothing
// was lost, and the encoded artifact decodes to the same contents.
func (u scenarioUnit) checkOutcome(run *scenarioRun) {
	h := u.h
	if run.out.Failures > 0 {
		h.problem("%s: %d workloads failed", u.name, run.out.Failures)
	}
	for _, r := range run.out.Results {
		if r.Err != nil {
			h.problem("%s: workload %s: %v", u.name, r.Workload, r.Err)
		}
		if l := r.Load; l != nil && (l.Errors > 0 || l.Skipped > 0 || l.Dispatched != l.Scheduled) {
			h.problem("%s: workload %s: %d scheduled, %d dispatched, %d skipped, %d errors",
				u.name, r.Workload, l.Scheduled, l.Dispatched, l.Skipped, l.Errors)
		}
	}
	if len(run.out.Degraded) > 0 {
		h.problem("%s: degraded: %s", u.name, strings.Join(run.out.Degraded, "; "))
	}
	want, err := bdbench.SpecDigest(u.spec)
	if err != nil || run.art.Meta.SpecDigest != want {
		h.problem("%s: artifact spec digest %s, spec digests to %s (%v)", u.name, run.art.Meta.SpecDigest, want, err)
	}
}

// verify decodes the written blob, compares the run with itself and renders
// the JSON report, each under a span of its own root, and checks that
// Decode(Encode(run)) has the digest of the run.
func (u scenarioUnit) verify(ctx context.Context, rep int, run *scenarioRun) {
	h, rec := u.h, u.h.rec
	ctx, endRoot := rec.StartRoot(ctx, rep, "verify", u.name)
	defer endRoot()

	_, end := rec.Start(ctx, "runstore.decode", "")
	back, err := runstore.Decode(run.blob)
	end()
	if err != nil {
		h.problem("%s: decode the artifact just encoded: %v", u.name, err)
		return
	}
	if got, err := back.Digest(); err != nil || got != runstore.DigestBytes(run.blob) {
		h.problem("%s: Decode(Encode(run)) digests to %s, the blob to %s (%v)", u.name, got, runstore.DigestBytes(run.blob), err)
	}
	_, end = rec.Start(ctx, "runstore.compare", "")
	cmp := runstore.Compare(run.art, back, runstore.CompareOptions{})
	end()
	if err := cmp.Err(); err != nil {
		h.problem("%s: the run compared with its own decoded copy: %v", u.name, err)
	}
	_, end = rec.Start(ctx, "runstore.merge", "")
	var merged runstore.Run
	merged.Merge(back)
	end()
	if len(merged.Series) != len(back.Series) {
		h.problem("%s: merging %d series into an empty run left %d", u.name, len(back.Series), len(merged.Series))
	}
	_, end = rec.Start(ctx, "report.render_json", "")
	var js bytes.Buffer
	err = report.JSONReporter{}.Report(&js, run.out)
	end()
	if err != nil {
		h.problem("%s: JSON report: %v", u.name, err)
	}
}

// layerOf names the layer a task's workload body belongs to: opcompose
// for an entry that composes a pattern, otherwise the workload's first
// stack type.
func (u scenarioUnit) layerOf(t scenario.Task) string {
	if u.spec.Entries[t.Entry].Pattern != nil {
		return "opcompose"
	}
	st := t.Workload.StackTypes()
	switch {
	case len(st) == 0:
		return ""
	case st[0] == stacks.TypeGraph:
		return "graphengine"
	}
	return string(st[0])
}

// trace does what only a traced repetition does after its timed call: the
// verify pass under spans of its own, then the repetition's per-layer
// samples.
func (u scenarioUnit) trace(ctx context.Context, rep int, run *scenarioRun) error {
	u.verify(ctx, rep, run)
	return u.ledgerFromSpans(rep, run)
}

// ledgerFromSpans turns repetition rep's spans into per-layer samples.
func (u scenarioUnit) ledgerFromSpans(rep int, run *scenarioRun) error {
	h := u.h
	tree := NewTree(h.rec.SpansOf(rep))
	l := h.ledger
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }

	// Which layer each workload body belongs to, and how much of it was
	// in-workload data generation.
	tasks, err := u.spec.Tasks(u.registry())
	if err != nil {
		return err
	}
	layerOf := map[string]string{}
	for _, t := range tasks {
		layerOf[t.Workload.Name()] = u.layerOf(t)
	}
	prep := map[string]time.Duration{}
	var prepTotal time.Duration
	var observations, drops int64
	for _, r := range run.out.Results {
		prep[layerOf[r.Workload]] += r.Result.DataPrep
		prepTotal += r.Result.DataPrep
		for _, op := range r.Result.Ops {
			observations += int64(op.Count)
		}
	}
	for _, s := range run.art.Series {
		drops += int64(s.Dropped)
	}

	for _, root := range tree.Roots() {
		switch root.Name {
		case "rep":
			var sum struct {
				scenarioSelf, engineRun, engineSelf, body int64
				byLayer                                   map[string]int64
				coordinate, agentBusy, agentLongest       int64
			}
			sum.byLayer = map[string]int64{}
			for _, s := range tree.Descendants(root, "scenario.run") {
				sum.scenarioSelf += tree.Self(s)
			}
			for _, s := range tree.Descendants(root, "engine.run") {
				sum.engineRun += s.Dur()
				sum.engineSelf += tree.Self(s)
			}
			bodies := tree.Descendants(root, "workload.run")
			for _, s := range bodies {
				sum.body += s.Dur()
				sum.byLayer[layerOf[s.Workload]] += s.Dur()
			}
			for _, s := range tree.Descendants(root, "cluster.coordinate") {
				sum.coordinate += s.Dur()
			}
			for _, s := range tree.Descendants(root, "cluster.agent") {
				sum.agentBusy += s.Dur()
				sum.agentLongest = max(sum.agentLongest, s.Dur())
			}
			l.add("scenario.self_ms", ms(sum.scenarioSelf))
			l.add("engine.run_s", sec(sum.engineRun))
			l.add("engine.self_ms", ms(sum.engineSelf))
			l.add("engine.executions", float64(len(bodies)))
			l.add("workloads.run_s", sec(sum.body))
			for _, layer := range []string{"mapreduce", "dbms", "nosql", "streaming", "graphengine"} {
				l.add("stacks."+layer+".run_s", sec(sum.byLayer[layer]-int64(prep[layer])))
			}
			l.add("opcompose.run_s", sec(sum.byLayer["opcompose"]))
			l.add("cluster.coordinate_s", sec(sum.coordinate))
			l.add("cluster.agent_busy_s", sec(sum.agentBusy))
			if sum.coordinate > 0 {
				l.add("cluster.overhead_ms", ms(sum.coordinate-sum.agentLongest))
			}
			for _, c := range tree.Children(root.ID) {
				switch c.Name {
				case "runstore.build":
					l.add("runstore.build_ms", ms(c.Dur()))
				case "runstore.encode":
					l.add("runstore.encode_ms", ms(c.Dur()))
				case "report.render":
					l.add("report.render_text_ms", ms(c.Dur()))
				}
			}
			l.add("harness.overhead_pct", 100*(1-float64(covered(bodies, root.Start, root.End))/float64(root.Dur())))
		case "verify":
			for _, c := range tree.Children(root.ID) {
				switch c.Name {
				case "runstore.decode":
					l.add("runstore.decode_ms", ms(c.Dur()))
				case "runstore.compare":
					l.add("runstore.compare_ms", ms(c.Dur()))
				case "runstore.merge":
					l.add("runstore.merge_ms", ms(c.Dur()))
				case "report.render_json":
					l.add("report.render_json_ms", ms(c.Dur()))
				}
			}
		}
	}

	samples := 0
	for _, s := range run.art.Series {
		samples += len(s.Samples)
	}
	l.add("scenario.tasks", float64(len(tasks)))
	l.add("engine.failed", float64(run.out.Failures))
	l.add("metrics.observations", float64(observations))
	l.add("metrics.sample_drops", float64(drops))
	l.add("datagen.prep_s", prepTotal.Seconds())
	l.add("runstore.blob_bytes", float64(len(run.blob)))
	l.add("runstore.samples", float64(samples))
	if samples > 0 {
		l.add("runstore.bytes_per_sample", float64(len(run.blob))/float64(samples))
	}
	l.add("cluster.degraded", float64(len(run.out.Degraded)))
	return nil
}

func (u scenarioUnit) registry() *bdbench.Registry {
	if u.reg != nil {
		return u.reg
	}
	return bdbench.DefaultRegistry()
}

// planProbe times what the Planning step does — parse, normalize, resolve
// — on the unit's own spec file.
func (u scenarioUnit) planProbe(raw []byte) error {
	return timedLoop(u.h, "scenario.plan_ms", 1e6, timed(func() error {
		spec, err := bdbench.ParseScenario(raw)
		if err != nil {
			return err
		}
		_, err = spec.Normalized().Tasks(u.registry())
		return err
	}))
}
