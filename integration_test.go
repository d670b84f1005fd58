package bdbench_test

import (
	"context"
	"strings"
	"testing"
	"time"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/suites"
	"github.com/bdbench/bdbench/internal/testgen"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestVersion(t *testing.T) {
	if bdbench.Version == "" {
		t.Fatal("empty version")
	}
}

// TestEndToEndBenchmarkingProcess exercises the full pipeline the paper
// describes: plan, generate data, generate tests, execute on simulated
// stacks, analyze — for a suite that touches multiple stack types.
func TestEndToEndBenchmarkingProcess(t *testing.T) {
	s := bdbench.SuiteScenario("CloudSuite") // NoSQL + Hadoop + text classification
	s.Scale, s.Workers, s.Seed = 1, 2, 99
	s.Energy, s.Cost = metrics.DefaultEnergyModel, metrics.DefaultCostModel
	out, err := bdbench.Run(context.Background(), s, bdbench.WithDataProbes())
	if err != nil {
		t.Fatal(err)
	}
	wantOrder := []bdbench.Step{bdbench.StepPlanning, bdbench.StepDataGeneration,
		bdbench.StepTestGeneration, bdbench.StepExecution, bdbench.StepAnalysis}
	if len(out.Steps) != len(wantOrder) {
		t.Fatalf("steps %d, want 5 (Figure 1)", len(out.Steps))
	}
	for i, st := range out.Steps {
		if st.Step != wantOrder[i] || st.Detail == "" {
			t.Fatalf("step %d = %s (detail %q), want %s with a detail", i, st.Step, st.Detail, wantOrder[i])
		}
	}
	if len(out.Results) != 4 {
		t.Fatalf("results %d, want 4 (CloudSuite inventory)", len(out.Results))
	}
	for _, r := range out.Results {
		if r.Result.EnergyJoules <= 0 || r.Result.CostUSD <= 0 {
			t.Fatalf("energy/cost missing on %s", r.Workload)
		}
	}
	if len(out.Summary) != 2 {
		t.Fatalf("summary categories %d, want 2 (online + offline)", len(out.Summary))
	}
	if len(out.Probes) != 1 || out.Probes[0].Suite != "CloudSuite" {
		t.Fatalf("probes %+v, want one for CloudSuite", out.Probes)
	}
	probe := out.Probes[0]
	if probe.Veracity != "Partially Considered" {
		t.Fatalf("CloudSuite veracity %s", probe.Veracity)
	}
	if probe.Volume == "" || len(probe.VolumeEvidence) == 0 {
		t.Fatalf("volume probe evidence missing: %q %v", probe.Volume, probe.VolumeEvidence)
	}
}

// TestTable1EndToEnd re-derives Table 1 with a different probe seed than
// the unit tests use: the classification must be seed-independent.
func TestTable1EndToEnd(t *testing.T) {
	rows, err := suites.DeriveTable1(123456)
	if err != nil {
		t.Fatal(err)
	}
	if diffs := suites.CompareToPaper(rows); len(diffs) != 0 {
		t.Fatalf("Table 1 derivation is seed-sensitive:\n  %s", strings.Join(diffs, "\n  "))
	}
}

// TestPrescriptionAcrossStacksEndToEnd runs a user-authored prescription
// (not a built-in) through the Figure 4 pipeline on every stack.
func TestPrescriptionAcrossStacksEndToEnd(t *testing.T) {
	p, _, _, err := testgen.Generate(
		testgen.DataSpec{Source: "pairs", Size: 800, Seed: 321, SecondSize: 200},
		[]testgen.Step{
			{Op: "join", UseSecond: true},
			{Op: "distinct"},
			{Op: "count"},
		},
		testgen.MultiPattern, "", 0,
	)
	if err != nil {
		t.Fatal(err)
	}
	results, err := testgen.VerifyPortability(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	ref := results["reference"]
	if len(ref) != 1 || ref[0].Key != "count" {
		t.Fatalf("unexpected reference outcome %v", ref)
	}
}

// TestAllSuitesExecutableSmoke runs the two cheapest workloads of every
// suite to confirm each emulation is wired to real, working runners.
func TestAllSuitesExecutableSmoke(t *testing.T) {
	for _, s := range suites.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			ran := 0
			for _, row := range s.Rows {
				for _, w := range row.Runners {
					if ran == 2 {
						return
					}
					c := metrics.NewCollector(w.Name())
					if err := w.Run(context.Background(), workloads.Params{Seed: 55, Scale: 1, Workers: 2}, c); err != nil {
						t.Fatalf("%s/%s: %v", s.Name, w.Name(), err)
					}
					ran++
				}
			}
		})
	}
}

// TestConcurrentEngineEndToEnd runs the five-step process through the
// concurrent execution engine with repetitions and a deadline, and checks
// the per-repetition results agree with a sequential single-rep run of the
// same plan (seeded determinism across scheduling).
func TestConcurrentEngineEndToEnd(t *testing.T) {
	s := bdbench.SuiteScenario("GridMix")
	s.Scale, s.Workers, s.Seed = 1, 2, 123
	s.Parallel, s.Reps, s.Timeout = 8, 2, bdbench.Duration(2*time.Minute)
	concurrent, err := bdbench.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range concurrent.Steps {
		if st.Step == bdbench.StepExecution && !strings.Contains(st.Detail, "reps=2") {
			t.Fatalf("execution step detail %q does not record the engine settings", st.Detail)
		}
	}
	s.Parallel, s.Reps = 1, 1
	sequential, err := bdbench.Run(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	if len(concurrent.Results) != len(sequential.Results) {
		t.Fatalf("result counts %d vs %d", len(concurrent.Results), len(sequential.Results))
	}
	for i := range concurrent.Results {
		cr, sr := concurrent.Results[i], sequential.Results[i]
		if cr.Workload != sr.Workload {
			t.Fatalf("order differs at %d: %s vs %s", i, cr.Workload, sr.Workload)
		}
		if len(cr.Reps) != 2 {
			t.Fatalf("%s: reps %d, want 2", cr.Workload, len(cr.Reps))
		}
		for k, v := range sr.Result.Counters {
			if cr.Result.Counters[k] != v {
				t.Fatalf("%s: counter %s differs between engine and sequential run: %d vs %d",
					cr.Workload, k, cr.Result.Counters[k], v)
			}
		}
	}
}
