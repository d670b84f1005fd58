package bdbench_test

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
	"time"

	bdbench "github.com/bdbench/bdbench"
)

// TestRunArtifactRoundTrip is the tentpole's acceptance path end to end: a
// run written with WithRunOutput, read back with ReadRun, re-rendered by
// every reporter — and each re-render must match the live run's report byte
// for byte.
func TestRunArtifactRoundTrip(t *testing.T) {
	reg := bdbench.NewRegistry()
	if err := reg.RegisterWorkload(evenCount{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.blob")
	sc := bdbench.Scenario{Name: "roundtrip", Entries: []bdbench.Entry{{Workload: "even-count"}}, Seed: 3, Scale: 2}
	out, err := bdbench.Run(context.Background(), sc,
		bdbench.WithRegistry(reg),
		bdbench.WithRunOutput(path),
	)
	if err != nil {
		t.Fatal(err)
	}

	run, err := bdbench.ReadRun(path)
	if err != nil {
		t.Fatalf("ReadRun: %v", err)
	}
	if run.Meta.Seed != 3 || run.Meta.Name != "roundtrip" {
		t.Fatalf("meta: %+v", run.Meta)
	}
	wantDigest, err := bdbench.SpecDigest(sc)
	if err != nil {
		t.Fatal(err)
	}
	if run.Meta.SpecDigest != wantDigest {
		t.Fatalf("spec digest %q, want %q", run.Meta.SpecDigest, wantDigest)
	}
	if len(run.Series) == 0 {
		t.Fatal("artifact carries no latency streams")
	}

	for _, format := range bdbench.Formats() {
		rep, err := bdbench.ReporterFor(format)
		if err != nil {
			t.Fatal(err)
		}
		var live, saved bytes.Buffer
		if err := rep.Report(&live, out); err != nil {
			t.Fatalf("%s live: %v", format, err)
		}
		if err := bdbench.RenderRun(&saved, run, format); err != nil {
			t.Fatalf("%s saved: %v", format, err)
		}
		if live.String() != saved.String() {
			t.Errorf("%s: re-rendered artifact diverges from live report\nlive:\n%s\nsaved:\n%s",
				format, live.String(), saved.String())
		}
	}
}

// TestCompareRunsThroughPublicAPI: same-seed self-comparison is clean; an
// injected +30%% value shift is flagged with a regressed verdict.
func TestCompareRunsThroughPublicAPI(t *testing.T) {
	reg := bdbench.NewRegistry()
	if err := reg.RegisterWorkload(evenCount{}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.blob"), filepath.Join(dir, "b.blob")}
	sc := bdbench.Scenario{Name: "cmp", Entries: []bdbench.Entry{{Workload: "even-count"}}, Seed: 7}
	for _, p := range paths {
		if _, err := bdbench.Run(context.Background(), sc,
			bdbench.WithRegistry(reg), bdbench.WithRunOutput(p)); err != nil {
			t.Fatal(err)
		}
	}
	a, err := bdbench.ReadRun(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := bdbench.ReadRun(paths[1])
	if err != nil {
		t.Fatal(err)
	}

	// Same seed, same spec: generous thresholds make self-comparison clean
	// even on a noisy machine. These are two real runs of a sub-microsecond
	// body, where one preemption is a 10x ratio on its own (p99 342 ns vs
	// 4.6 µs was seen), so the ratio sits on the absolute floor CI's compare
	// job uses too.
	cmp := bdbench.CompareRuns(a, b, bdbench.CompareOptions{
		LatencyThreshold: 10, ThroughputThreshold: 0.99, MinDelta: time.Millisecond})
	if !cmp.SpecMatch || !cmp.SeedMatch {
		t.Fatalf("same-seed runs: SpecMatch=%v SeedMatch=%v", cmp.SpecMatch, cmp.SeedMatch)
	}
	if cmp.Verdict == bdbench.VerdictRegressed {
		t.Fatalf("self-comparison regressed: %+v", cmp)
	}

	// Inject a +30% shift into a copy of run a and compare against the
	// original: the two sides differ only by the synthetic shift, so the
	// verdict is deterministic.
	shifted, err := bdbench.ReadRun(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := range shifted.Series {
		for j := range shifted.Series[i].Samples {
			shifted.Series[i].Samples[j].Value = shifted.Series[i].Samples[j].Value * 13 / 10
		}
	}
	cmp = bdbench.CompareRuns(a, shifted, bdbench.CompareOptions{LatencyThreshold: 0.15})
	if cmp.Verdict != bdbench.VerdictRegressed {
		t.Fatal("+30% shift not flagged")
	}
	if cmp.Err() == nil {
		t.Fatal("Err() nil on regression")
	}
	text, err := bdbench.FormatComparison(cmp, "text")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "regressed") {
		t.Errorf("text comparison missing verdict:\n%s", text)
	}
}

// TestCompareMarksTruncatedStreams: capture keeps the first N observations
// of a stream and counts the rest, and Compare's quantiles come from what
// was kept — so a comparison says which rows rest on a prefix. Two runs
// captured with a bound of 8 (the workload records 100 "check" operations)
// carry the marker and the drop counts; two complete runs carry neither.
func TestCompareMarksTruncatedStreams(t *testing.T) {
	reg := bdbench.NewRegistry()
	if err := reg.RegisterWorkload(evenCount{}); err != nil {
		t.Fatal(err)
	}
	sc := bdbench.Scenario{Name: "cmp", Entries: []bdbench.Entry{{Workload: "even-count"}}, Seed: 7}
	compared := func(opts ...bdbench.Option) *bdbench.RunComparison {
		t.Helper()
		var runs [2]*bdbench.RunArtifact
		for i := range runs {
			path := filepath.Join(t.TempDir(), "run.blob")
			all := append([]bdbench.Option{bdbench.WithRegistry(reg), bdbench.WithRunOutput(path)}, opts...)
			if _, err := bdbench.Run(context.Background(), sc, all...); err != nil {
				t.Fatal(err)
			}
			run, err := bdbench.ReadRun(path)
			if err != nil {
				t.Fatal(err)
			}
			runs[i] = run
		}
		return bdbench.CompareRuns(runs[0], runs[1], bdbench.CompareOptions{LatencyThreshold: 1000, ThroughputThreshold: 0.99})
	}
	render := func(cmp *bdbench.RunComparison, format string) string {
		t.Helper()
		s, err := bdbench.FormatComparison(cmp, format)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	truncated := compared(bdbench.WithSamples(8))
	found := false
	for _, d := range truncated.Series {
		if d.Op != "check" {
			continue
		}
		found = true
		if d.CountA != 8 || d.DroppedA != 92 || d.DroppedB != 92 {
			t.Fatalf("check stream under an 8-sample bound: %+v", d)
		}
	}
	if !found {
		t.Fatalf("no check stream compared: %+v", truncated.Series)
	}
	if truncated.Verdict != bdbench.VerdictOK {
		t.Fatalf("truncation changed the verdict: %s", truncated.Verdict)
	}
	for _, format := range []string{"text", "markdown"} {
		if out := render(truncated, format); !strings.Contains(out, "even-count/check (truncated)") {
			t.Errorf("%s comparison does not mark the truncated stream:\n%s", format, out)
		}
	}
	if out := render(truncated, "json"); !strings.Contains(out, `"droppedA": 92`) || !strings.Contains(out, `"droppedB": 92`) {
		t.Errorf("json comparison lost the drop counts:\n%s", out)
	}

	complete := compared()
	for _, format := range []string{"text", "markdown", "json"} {
		if out := render(complete, format); strings.Contains(out, "truncated") || strings.Contains(out, "dropped") {
			t.Errorf("%s comparison of complete runs mentions truncation:\n%s", format, out)
		}
	}
}

// TestReadRunRejectsGarbage: the public reader surfaces decode errors.
func TestReadRunRejectsGarbage(t *testing.T) {
	if _, err := bdbench.ReadRun(filepath.Join(t.TempDir(), "missing.blob")); err == nil {
		t.Fatal("missing file read cleanly")
	}
}
