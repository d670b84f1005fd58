package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"regexp"
	"testing"
)

// TestMain reads BENCHMARK.json, as the program does when it starts.
func TestMain(m *testing.M) {
	if err := loadBenchmarkFile("../BENCHMARK.json"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileIsWithinTheContract holds BENCHMARK.json to the limits
// the driver refuses a benchmark by.
func TestBenchmarkFileIsWithinTheContract(t *testing.T) {
	if bench.RunSeconds < 1 || bench.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", bench.RunSeconds)
	}
	if n := len(bench.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bench.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bench.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not 1 to 64 letters, digits, '_', '.' and '-'", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range bench.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, want 1 to 200", w.Name, len(w.Why))
		}
	}
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, m := range append(append([]metricDef(nil), bench.EndToEnd...), bench.PerLayer...) {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not 1 to 16 of letters, digits, '_', '/', '%%', '.', '-'", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	hasSetup := false
	for _, m := range bench.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range bench.PerLayer {
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
}

// smokeSeconds is the measuring time of the test's runs. expected.json
// describes the small run of seed 2014 with this time, so the test holds
// every workload's outputs to the oracle.
const smokeSeconds = 0.4

// TestSmoke runs every workload at scale 1 for a fraction of a second,
// traced, and checks that each reports exactly the declared metrics, all
// finite, and passes its correctness checks, expected.json included.
func TestSmoke(t *testing.T) {
	if _, _, err := processUsage(); err != nil {
		t.Skip(err)
	}
	e, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	if e.find(2014, smokeSeconds, true) == nil {
		t.Fatalf("expected.json does not describe the small run of seed 2014 at %v s", smokeSeconds)
	}
	for _, w := range bench.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel() // nothing here depends on how long anything took
			res, err := runWorkload(context.Background(), options{
				workload: w.Name,
				seed:     2014,
				seconds:  smokeSeconds,
				trace:    true,
				small:    true,
				dir:      t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Detail.Problems {
				t.Errorf("failed check: %s", p)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			sameNames := func(kind string, got map[string]float64, defs []metricDef) {
				if len(got) != len(defs) {
					t.Errorf("%d %s metrics reported, %d declared", len(got), kind, len(defs))
				}
				for _, m := range defs {
					v, ok := got[m.Name]
					if !ok {
						t.Errorf("%s metric %s was not reported", kind, m.Name)
					}
					if math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("%s metric %s = %v", kind, m.Name, v)
					}
				}
			}
			sameNames("end-to-end", res.EndToEnd, bench.EndToEnd)
			sameNames("per-layer", res.PerLayer, bench.PerLayer)
			for _, m := range bench.EndToEnd {
				if res.EndToEnd[m.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, res.EndToEnd[m.Name])
				}
			}
			if res.PerLayer["harness.overhead_pct"] <= 0 || res.PerLayer["harness.overhead_pct"] > 100 {
				t.Errorf("harness overhead = %v%%", res.PerLayer["harness.overhead_pct"])
			}
		})
	}
}

// TestQuartileSpreadMatchesPython pins quartileSpread to the values
// statistics.quantiles(v, n=4) gives, the rule the driver accepts by.
func TestQuartileSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 1, 7, 3}, (9.25 - 1.5) / 5},
		{[]float64{2, 4}, (4.5 - 1.5) / 3},
		{[]float64{5}, 0},
	} {
		if got := quartileSpread(c.vs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
}
