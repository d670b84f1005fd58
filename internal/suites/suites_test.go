package suites

import (
	"context"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen/veracity"
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestAllSuitesWellFormed(t *testing.T) {
	all := All()
	if len(all) != 11 { // 10 surveyed + bdbench
		t.Fatalf("suites %d, want 11", len(all))
	}
	for _, s := range all {
		if s.Name == "" || len(s.Datasets) == 0 || len(s.Rows) == 0 || len(s.SoftwareStacks) == 0 {
			t.Fatalf("suite %q incomplete", s.Name)
		}
		for _, d := range s.Datasets {
			if d.Size == nil || d.Size(1) <= 0 {
				t.Fatalf("suite %q dataset %q has no size", s.Name, d.Name)
			}
		}
		for _, r := range s.Rows {
			if len(r.Runners) == 0 || len(r.Examples) == 0 {
				t.Fatalf("suite %q has an empty workload row", s.Name)
			}
		}
	}
}

// mustSuite returns the named built-in suite.
func mustSuite(t *testing.T, name string) Suite {
	t.Helper()
	for _, s := range All() {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("no built-in suite %q", name)
	return Suite{}
}

func TestProbeVolume(t *testing.T) {
	hibench := mustSuite(t, "HiBench")
	class, ev := ProbeVolume(hibench)
	if class != VolumePartially {
		t.Fatalf("HiBench volume %s, want partially scalable (fixed seed corpus)", class)
	}
	foundFixed := false
	for _, e := range ev {
		if !e.Scales {
			foundFixed = true
		}
	}
	if !foundFixed {
		t.Fatal("no fixed dataset in evidence")
	}
	ycsb := mustSuite(t, "YCSB")
	if class, _ := ProbeVolume(ycsb); class != VolumeScalable {
		t.Fatalf("YCSB volume %s, want scalable", class)
	}
}

func TestProbeVelocityClasses(t *testing.T) {
	hibench := mustSuite(t, "HiBench")
	class, _, err := ProbeVelocity(hibench)
	if err != nil {
		t.Fatal(err)
	}
	if class != VelocityUncontrollable {
		t.Fatalf("HiBench velocity %s", class)
	}
	tpcds := mustSuite(t, "TPC-DS")
	class, ev, err := ProbeVelocity(tpcds)
	if err != nil {
		t.Fatal(err)
	}
	if class != VelocitySemiControllable {
		t.Fatalf("TPC-DS velocity %s", class)
	}
	if ev.RateLowAchieved <= 0 || ev.RateHiAchieved <= ev.RateLowAchieved {
		t.Fatalf("rate evidence not measured: %+v", ev)
	}
	ours := mustSuite(t, "bdbench (this work)")
	class, ev, err = ProbeVelocity(ours)
	if err != nil {
		t.Fatal(err)
	}
	if class != VelocityFullControllable {
		t.Fatalf("bdbench velocity %s, want fully controllable", class)
	}
	if ev.UpdateAchieved == 0 {
		t.Fatal("update-frequency evidence missing")
	}
}

func TestVeracityApproachLevels(t *testing.T) {
	cases := []struct {
		name string
		run  func() (VeracityScores, error)
		want veracity.Level
	}{
		{"text-random", func() (VeracityScores, error) { return MeasureTextVeracity(TextRandom, 500) }, veracity.LevelUnconsidered},
		{"text-lda", func() (VeracityScores, error) { return MeasureTextVeracity(TextLDA, 500) }, veracity.LevelConsidered},
		{"table-random", func() (VeracityScores, error) { return MeasureTableVeracity(TableRandom, 500) }, veracity.LevelUnconsidered},
		{"table-moment", func() (VeracityScores, error) { return MeasureTableVeracity(TableMoment, 500) }, veracity.LevelPartial},
		{"table-profiled", func() (VeracityScores, error) { return MeasureTableVeracity(TableProfiled, 500) }, veracity.LevelConsidered},
		{"graph-random", func() (VeracityScores, error) { return MeasureGraphVeracity(GraphRandom, 500) }, veracity.LevelUnconsidered},
		{"graph-approx", func() (VeracityScores, error) { return MeasureGraphVeracity(GraphApprox, 500) }, veracity.LevelPartial},
		{"graph-matched", func() (VeracityScores, error) { return MeasureGraphVeracity(GraphMatched, 500) }, veracity.LevelConsidered},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			sc, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if sc.Level != c.want {
				t.Fatalf("level %s (score=%.4f floor=%.4f base=%.4f), want %s",
					sc.Level, sc.Score, sc.NoiseFloor, sc.Baseline, c.want)
			}
		})
	}
}

func TestVeracityMeasureErrors(t *testing.T) {
	if _, err := MeasureTextVeracity(TextNone, 1); err == nil {
		t.Fatal("TextNone accepted")
	}
	if _, err := MeasureTableVeracity(TableNone, 1); err == nil {
		t.Fatal("TableNone accepted")
	}
	if _, err := MeasureGraphVeracity(GraphNone, 1); err == nil {
		t.Fatal("GraphNone accepted")
	}
}

func TestDeriveTable1MatchesPaper(t *testing.T) {
	// The headline Table 1 reproduction: every derived cell must match the
	// paper's published classification for all ten surveyed suites.
	rows, err := DeriveTable1(900)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows %d", len(rows))
	}
	diffs := CompareToPaper(rows)
	if len(diffs) != 0 {
		t.Fatalf("derived Table 1 disagrees with the paper:\n  %s", strings.Join(diffs, "\n  "))
	}
	// The bdbench extension row exceeds every surveyed suite on velocity.
	last := rows[len(rows)-1]
	if last.Velocity != VelocityFullControllable || last.Veracity != veracity.LevelConsidered {
		t.Fatalf("bdbench row: %+v", last)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "BigDataBench") || !strings.Contains(out, "Considered") {
		t.Fatal("formatted table incomplete")
	}
}

func TestDeriveTable2MatchesPaper(t *testing.T) {
	rows := DeriveTable2()
	diffs := CompareTable2ToPaper(rows)
	if len(diffs) != 0 {
		t.Fatalf("derived Table 2 disagrees with the paper:\n  %s", strings.Join(diffs, "\n  "))
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "ycsb") && !strings.Contains(out, "OLTP") {
		t.Fatal("formatted table incomplete")
	}
}

func TestEveryDistinctWorkloadRuns(t *testing.T) {
	// Run each distinct workload across all suite inventories once at
	// small scale; Table 2's rows are executable, not just descriptive.
	seen := map[string]bool{}
	for _, s := range All() {
		for _, row := range s.Rows {
			for _, w := range row.Runners {
				if seen[w.Name()] {
					continue
				}
				seen[w.Name()] = true
				w := w
				t.Run(w.Name(), func(t *testing.T) {
					t.Parallel()
					c := newCollector(w.Name())
					if err := w.Run(context.Background(), workloads.Params{Seed: 77, Scale: 1, Workers: 2}, c); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
	if len(seen) < 15 {
		t.Fatalf("only %d distinct workloads across all suites", len(seen))
	}
}

// suiteTasks flattens a suite's workload inventory into engine tasks, one
// per runner, in row order.
func suiteTasks(s Suite, p workloads.Params) []engine.Task {
	var tasks []engine.Task
	for _, row := range s.Rows {
		for _, w := range row.Runners {
			tasks = append(tasks, engine.Task{Workload: w, Category: row.Category, Params: p})
		}
	}
	return tasks
}

func TestSuiteTasksCollectResults(t *testing.T) {
	gridmix := mustSuite(t, "GridMix")
	results := engine.Run(context.Background(), suiteTasks(gridmix, workloads.Params{Seed: 7, Scale: 1, Workers: 2}), engine.Config{})
	if len(results) != 2 {
		t.Fatalf("results %d", len(results))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Workload, r.Err)
		}
		if r.Median.Elapsed <= 0 {
			t.Fatalf("%s: no elapsed time", r.Workload)
		}
	}
}

func TestLinkBenchOpsDirect(t *testing.T) {
	c := newCollector("linkbench")
	if err := (LinkBenchOps{}).Run(context.Background(), workloads.Params{Seed: 3, Scale: 1, Workers: 2}, c); err != nil {
		t.Fatal(err)
	}
	c.SetElapsed(1)
	r := c.Snapshot()
	wantOps := map[string]bool{"select": false, "assoc_range": false, "count": false, "update": false, "insert": false}
	for _, op := range r.Ops {
		if _, ok := wantOps[op.Op]; ok {
			wantOps[op.Op] = true
		}
	}
	for op, seen := range wantOps {
		if !seen {
			t.Fatalf("linkbench never executed %q", op)
		}
	}
}

func newCollector(name string) *metrics.Collector { return metrics.NewCollector(name) }

// TestSuiteTasksDeterministicAcrossWorkers is the acceptance check for the
// execution engine over a suite inventory: the same seed yields identical
// per-workload results (counters, operation counts, order) at workers=1 and
// workers=8.
func TestSuiteTasksDeterministicAcrossWorkers(t *testing.T) {
	suite := mustSuite(t, "CloudSuite")
	p := workloads.Params{Seed: 42, Scale: 1, Workers: 2}
	sequential := engine.Run(context.Background(), suiteTasks(suite, p), engine.Config{Workers: 1})
	parallel := engine.Run(context.Background(), suiteTasks(suite, p), engine.Config{Workers: 8})
	if len(sequential) != len(parallel) || len(sequential) == 0 {
		t.Fatalf("result lengths: %d vs %d", len(sequential), len(parallel))
	}
	for i := range sequential {
		s, q := sequential[i], parallel[i]
		if s.Workload != q.Workload || s.Category != q.Category {
			t.Fatalf("order differs at %d: %s vs %s", i, s.Workload, q.Workload)
		}
		if s.Err != nil || q.Err != nil {
			t.Fatalf("%s: errors %v / %v", s.Workload, s.Err, q.Err)
		}
		if len(s.Median.Counters) == 0 {
			t.Fatalf("%s: no counters recorded", s.Workload)
		}
		for k, v := range s.Median.Counters {
			if q.Median.Counters[k] != v {
				t.Fatalf("%s: counter %s differs across worker counts: %d vs %d",
					s.Workload, k, v, q.Median.Counters[k])
			}
		}
		if len(s.Median.Ops) != len(q.Median.Ops) {
			t.Fatalf("%s: op sets differ", s.Workload)
		}
		for j := range s.Median.Ops {
			if s.Median.Ops[j].Op != q.Median.Ops[j].Op || s.Median.Ops[j].Count != q.Median.Ops[j].Count {
				t.Fatalf("%s: op %s count differs across worker counts", s.Workload, s.Median.Ops[j].Op)
			}
		}
	}
}

// TestSuiteTasksReps checks the repetition plumbing end to end at the suite
// layer: every workload reports each measured repetition plus a throughput
// summary, and the representative result is one of the reps.
func TestSuiteTasksReps(t *testing.T) {
	suite := mustSuite(t, "GridMix")
	p := workloads.Params{Seed: 7, Scale: 1, Workers: 2}
	results := engine.Run(context.Background(), suiteTasks(suite, p), engine.Config{Workers: 2, Reps: 3, Warmup: 1})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Workload, r.Err)
		}
		if len(r.Reps) != 3 {
			t.Fatalf("%s: reps %d, want 3", r.Workload, len(r.Reps))
		}
		if r.Throughput.Count != 3 || r.Throughput.Mean <= 0 {
			t.Fatalf("%s: throughput summary %+v", r.Workload, r.Throughput)
		}
		found := false
		for _, rep := range r.Reps {
			if rep.Result.Throughput == r.Median.Throughput {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: representative result is not one of the reps", r.Workload)
		}
	}
}
