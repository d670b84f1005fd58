package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/datagen"
	"github.com/bdbench/bdbench/datagen/graphgen"
	"github.com/bdbench/bdbench/datagen/streamgen"
	"github.com/bdbench/bdbench/datagen/tablegen"
	"github.com/bdbench/bdbench/datagen/veracity"
)

// cmdExperiments runs the quantitative experiments E7-E13 and prints their
// series. The workload-running experiments (E11-E13) go through the public
// scenario API like any external caller would; explicitly set engine knobs
// layer over each experiment's baseline (seed, parallelism) the same way
// they layer over a -spec file. The generator experiments (E7-E9) only
// respond to -scale.
func cmdExperiments(args []string) error {
	fs := newFlagSet("experiments")
	quick := fs.Bool("quick", false, "smaller sizes for a fast pass")
	sf := addScenarioFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale := 1
	if !*quick {
		scale = 2
	}
	if *sf.scale > 0 {
		scale = *sf.scale
	}
	for _, f := range []func(int, *scenarioFlags) error{
		expVelocityParallel,
		expVelocityAlgorithmKnob,
		expVeracityVsSampleSize,
		expYCSBProfile,
		expPavloComparison,
		expWorkloadCategories,
		expProcessingSpeed,
	} {
		if err := f(scale, sf); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// expVelocityParallel is E7: data generation rate vs parallel generators.
func expVelocityParallel(scale int, _ *scenarioFlags) error {
	fmt.Fprintln(stdout, "E7 — velocity via parallel deployment (rows/s vs workers)")
	spec := tablegen.ReferenceSpec(1)
	spec.ChunkSize = 1024
	rows := int64(100_000 * scale)
	maxWorkers := runtime.GOMAXPROCS(0)
	var labels []string
	var rates []float64
	for w := 1; w <= maxWorkers; w *= 2 {
		t0 := time.Now()
		tab := spec.GenerateParallel(rows, w)
		rate := float64(tab.NumRows()) / time.Since(t0).Seconds()
		labels = append(labels, fmt.Sprintf("%d workers", w))
		rates = append(rates, rate)
	}
	fmt.Fprint(stdout, bdbench.BarChart(labels, rates, 40))
	return nil
}

// expVelocityAlgorithmKnob is E8 (§5.1): generation speed vs the BA
// generator's memory mode.
func expVelocityAlgorithmKnob(scale int, _ *scenarioFlags) error {
	fmt.Fprintln(stdout, "E8 — velocity via algorithm efficiency (graph gen, §5.1)")
	sc := 12 + scale
	t0 := time.Now()
	heavy := graphgen.BarabasiAlbert{M: 4, Mode: graphgen.MemoryHeavy}.Generate(datagen.NewRNG(2), sc)
	heavyDur := time.Since(t0)
	t1 := time.Now()
	light := graphgen.BarabasiAlbert{M: 4, Mode: graphgen.MemoryLight}.Generate(datagen.NewRNG(2), sc)
	lightDur := time.Since(t1)
	fmt.Fprint(stdout, bdbench.BarChart(
		[]string{"memory-heavy (edges/s)", "memory-light (edges/s)"},
		[]float64{
			float64(heavy.NumEdges()) / heavyDur.Seconds(),
			float64(light.NumEdges()) / lightDur.Seconds(),
		}, 40))
	fmt.Fprintf(stdout, "speedup from spending memory: %.1fx\n", lightDur.Seconds()/heavyDur.Seconds())
	return nil
}

// expVeracityVsSampleSize is E9: divergence of model-based vs unaware
// generation as sample size grows.
func expVeracityVsSampleSize(scale int, _ *scenarioFlags) error {
	fmt.Fprintln(stdout, "E9 — veracity metric vs sample size (table data)")
	raw := tablegen.ReferenceTable(3, int64(4000*scale))
	full, err := tablegen.BuildSpec(raw, tablegen.VeracityFull, nil, 32, 4)
	if err != nil {
		return err
	}
	none, err := tablegen.BuildSpec(raw, tablegen.VeracityNone, nil, 32, 5)
	if err != nil {
		return err
	}
	s := bdbench.Series{Name: "mean column divergence", XLabel: "synthetic rows", YLabel: "divergence"}
	baseline := bdbench.Series{Name: "veracity-unaware baseline", XLabel: "synthetic rows", YLabel: "divergence"}
	for _, n := range []int64{250, 1000, 4000} {
		synFull := full.Generate(n * int64(scale))
		synNone := none.Generate(n * int64(scale))
		rf, err := veracity.Table(raw, synFull, 32)
		if err != nil {
			return err
		}
		rn, err := veracity.Table(raw, synNone, 32)
		if err != nil {
			return err
		}
		s.X = append(s.X, float64(n))
		s.Y = append(s.Y, rf.Score())
		baseline.X = append(baseline.X, float64(n))
		baseline.Y = append(baseline.Y, rn.Score())
	}
	fmt.Fprint(stdout, bdbench.FormatSeries(s))
	fmt.Fprint(stdout, bdbench.FormatSeries(baseline))
	return nil
}

// expYCSBProfile is E11: throughput and latency per YCSB workload, run
// through the public scenario API with one engine worker so workloads are
// measured without contending with each other.
func expYCSBProfile(scale int, sf *scenarioFlags) error {
	fmt.Fprintln(stdout, "E11 — YCSB core workloads on the NoSQL store")
	sc := bdbench.SuiteScenario("YCSB")
	sc.Scale, sc.Seed, sc.Parallel = scale, 6, 1
	sf.applySet(&sc)
	out, err := bdbench.Run(context.Background(), sc, sf.options()...)
	if err != nil {
		return err
	}
	var results []bdbench.Result
	for _, r := range out.Results {
		results = append(results, r.Result)
	}
	fmt.Fprint(stdout, bdbench.FormatResults(results))
	return nil
}

// expPavloComparison is E12: DBMS vs MapReduce on the Pavlo task set,
// selected by workload name from the registry.
func expPavloComparison(scale int, sf *scenarioFlags) error {
	fmt.Fprintln(stdout, "E12 — Pavlo comparison: DBMS vs MapReduce task latencies")
	sc := bdbench.Scenario{
		Name: "pavlo comparison",
		Entries: []bdbench.Entry{
			{Workload: "pavlo-dbms"},
			{Workload: "pavlo-mapreduce"},
		},
		Scale: scale, Seed: 7, Parallel: 1,
	}
	sf.applySet(&sc)
	out, err := bdbench.Run(context.Background(), sc, sf.options()...)
	if err != nil {
		return err
	}
	find := func(r bdbench.Result, task string) string {
		for _, op := range r.Ops {
			if op.Op == task {
				return op.Mean.Round(time.Microsecond).String()
			}
		}
		return "-"
	}
	var rows [][]string
	for _, task := range []string{"select", "aggregate", "join"} {
		rows = append(rows, []string{task,
			find(out.Results[0].Result, task),
			find(out.Results[1].Result, task)})
	}
	printAligned([]string{"task", "dbms", "mapreduce"}, rows)
	return nil
}

// expWorkloadCategories is E13: throughput profile per workload category —
// the scenario outcome's summary is exactly this digest.
func expWorkloadCategories(scale int, sf *scenarioFlags) error {
	fmt.Fprintln(stdout, "E13 — workload category profiles (BigDataBench inventory)")
	sc := bdbench.SuiteScenario("BigDataBench")
	// One engine worker: E13 compares per-workload throughput, so workloads
	// must not contend with each other for CPU while being measured.
	sc.Scale, sc.Seed, sc.Parallel = scale, 8, 1
	sf.applySet(&sc)
	out, err := bdbench.Run(context.Background(), sc, sf.options()...)
	if err != nil {
		return err
	}
	var labels []string
	var values []float64
	for _, cat := range []bdbench.Category{bdbench.Online, bdbench.Offline, bdbench.Realtime} {
		labels = append(labels, string(cat))
		values = append(values, out.Summary[cat])
	}
	fmt.Fprint(stdout, bdbench.BarChart(labels, values, 40))
	return nil
}

// expProcessingSpeed measures velocity-as-processing-speed: the streaming
// engine's sustainable rate vs the generator's arrival rate.
func expProcessingSpeed(scale int, _ *scenarioFlags) error {
	fmt.Fprintln(stdout, "E7b — processing speed vs arrival rate (streaming)")
	gen := streamgen.Generator{EventsPerSec: 50_000, KeySpace: 100}
	events := gen.Generate(datagen.NewRNG(9), int64(50_000*scale))
	probe := datagen.NewRateProbe()
	rate := streamgen.MeasureProcessingSpeed(events, func(streamgen.Event) { probe.Add(1) })
	fmt.Fprintf(stdout, "arrival rate (virtual): 50000 ev/s; sustained processing: %.0f ev/s (%.1fx)\n",
		rate, rate/50_000)
	return nil
}
