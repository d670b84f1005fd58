package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	bdbench "github.com/bdbench/bdbench"
)

// validated runs `bdbench run <args> -validate` and returns the normalized
// scenario it prints — the flag → Scenario mapping, through the real
// command line, without running a workload.
func validated(t *testing.T, args ...string) bdbench.Scenario {
	t.Helper()
	var out, errw bytes.Buffer
	if code := run(append([]string{"run", "-validate"}, args...), &out, &errw); code != 0 {
		t.Fatalf("run -validate %v: exit %d\n%s", args, code, errw.String())
	}
	var sc bdbench.Scenario
	if err := json.Unmarshal(out.Bytes(), &sc); err != nil {
		t.Fatalf("normalized scenario is not JSON: %v\n%s", err, out.String())
	}
	return sc
}

const sampleSpec = "../../testdata/scenario.sample.json"

// TestSuiteScenarioTakesEveryFlag: a suite scenario starts from CLI
// defaults, so every knob is layered on — set or not.
func TestSuiteScenarioTakesEveryFlag(t *testing.T) {
	sc := validated(t, "-suite", "GridMix", "-scale", "3", "-workers", "2", "-timeout", "5s")
	if len(sc.Entries) != 1 || sc.Entries[0].Suite != "GridMix" {
		t.Fatalf("entries %+v, want the GridMix suite", sc.Entries)
	}
	if sc.Scale != 3 || sc.Parallel != 2 || sc.Timeout != bdbench.Duration(5*time.Second) {
		t.Fatalf("set flags not applied: scale=%d parallel=%d timeout=%v", sc.Scale, sc.Parallel, sc.Timeout)
	}
	// Unset flags still land, with their defaults.
	if sc.Seed != 42 || sc.Reps != 1 {
		t.Fatalf("flag defaults not applied: seed=%d reps=%d", sc.Seed, sc.Reps)
	}
}

// TestSpecKeepsWhatFlagsLeaveUnset: with -spec only the flags given on the
// command line override; the spec's other values win over flag defaults.
func TestSpecKeepsWhatFlagsLeaveUnset(t *testing.T) {
	plain := validated(t, "-spec", sampleSpec)
	if plain.Seed != 2014 || plain.Scale != 1 || plain.DatagenWorkers != 2 || plain.Timeout != bdbench.Duration(2*time.Minute) {
		t.Fatalf("spec values lost to flag defaults: seed=%d scale=%d datagenWorkers=%d timeout=%v",
			plain.Seed, plain.Scale, plain.DatagenWorkers, plain.Timeout)
	}
	sc := validated(t, "-spec", sampleSpec, "-reps", "5", "-suite", "ignored")
	if sc.Reps != 5 {
		t.Fatalf("reps %d, want the flag's 5", sc.Reps)
	}
	sc.Reps = plain.Reps
	if !reflect.DeepEqual(sc, plain) {
		t.Fatalf("one flag changed more than one field:\n got %+v\nwant %+v", sc, plain)
	}
}

// TestTraceAloneImpliesReplay: -trace only makes sense under the replay
// arrival, in both layering variants; an explicit -arrival is left alone
// (and then rejected by validation, which requires replay for a trace).
func TestTraceAloneImpliesReplay(t *testing.T) {
	for name, args := range map[string][]string{
		"suite": {"-suite", "GridMix", "-rate", "10", "-trace", "weblog"},
		"spec":  {"-spec", sampleSpec, "-rate", "10", "-trace", "weblog"},
	} {
		if sc := validated(t, args...); sc.Trace != "weblog" || sc.Arrival != "replay" {
			t.Errorf("%s: trace=%q arrival=%q, want weblog under replay", name, sc.Trace, sc.Arrival)
		}
	}
	var out, errw bytes.Buffer
	code := run([]string{"run", "-validate", "-suite", "GridMix", "-rate", "10", "-trace", "weblog", "-arrival", "poisson"}, &out, &errw)
	if code != 1 || !strings.Contains(errw.String(), `a trace requires the "replay" arrival`) {
		t.Errorf("explicit -arrival poisson with -trace: exit %d, stderr %q", code, errw.String())
	}
}

func TestListParsers(t *testing.T) {
	floats := []struct {
		name  string
		parse func(string) ([]float64, error)
		in    string
		want  []float64
		bad   bool
	}{
		{"rates", parseRates, "10, 25,,50", []float64{10, 25, 50}, false},
		{"rates-empty", parseRates, " , ", nil, true},
		{"rates-zero", parseRates, "10,0", nil, true},
		{"rates-word", parseRates, "fast", nil, true},
		{"quantiles", parseQuantiles, "0.5, 0.99", []float64{0.5, 0.99}, false},
		{"quantiles-default", parseQuantiles, "  ", nil, false},
		{"quantiles-one", parseQuantiles, "0.5,1", nil, true},
		{"quantiles-only-commas", parseQuantiles, ",", nil, true},
	}
	for _, tc := range floats {
		got, err := tc.parse(tc.in)
		if (err != nil) != tc.bad || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s(%q) = %v, %v; want %v (error: %v)", tc.name, tc.in, got, err, tc.want, tc.bad)
		}
	}
	want := []string{"http://a:1", "http://b:2"}
	if got := splitAgents(" http://a:1/ ,,http://b:2// "); !reflect.DeepEqual(got, want) {
		t.Errorf("splitAgents = %q, want %q", got, want)
	}
	if got := splitAgents(""); got != nil {
		t.Errorf("splitAgents(\"\") = %q, want none", got)
	}
}

func TestUnknownCommandExitsTwo(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"frobnicate"}, &out, &errw); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), `unknown command "frobnicate"`) || out.Len() != 0 {
		t.Fatalf("stdout %q stderr %q", out.String(), errw.String())
	}
	if code := run(nil, &out, &errw); code != 2 {
		t.Fatalf("no command: exit %d, want 2", code)
	}
}

// TestRunShowCompare drives the artifact round trip through the real
// command line: `run -out` writes a blob whose `show` re-renders the live
// report byte for byte, comparing it with itself exits 0, and comparing it
// with a copy whose latencies are 30% higher exits 1.
func TestRunShowCompare(t *testing.T) {
	dir := t.TempDir()
	blob := filepath.Join(dir, "a.blob")
	var live, errw bytes.Buffer
	if code := run([]string{"run", "-suite", "GridMix", "-seed", "7", "-out", blob}, &live, &errw); code != 0 {
		t.Fatalf("run: exit %d\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "run: artifact written to "+blob) {
		t.Fatalf("no artifact note on stderr: %q", errw.String())
	}
	for _, format := range []string{"text", "json"} {
		var first, again bytes.Buffer
		if code := run([]string{"show", "-format", format, blob}, &first, &errw); code != 0 {
			t.Fatalf("show -format %s: exit %d\n%s", format, code, errw.String())
		}
		if format == "text" && first.String() != live.String() {
			t.Fatalf("show differs from the live report:\n--- live\n%s--- show\n%s", live.String(), first.String())
		}
		if code := run([]string{"show", "-format", format, blob}, &again, &errw); code != 0 || again.String() != first.String() {
			t.Fatalf("show -format %s is not stable (exit %d)", format, code)
		}
	}

	var out bytes.Buffer
	if code := run([]string{"compare", blob, blob}, &out, &errw); code != 0 {
		t.Fatalf("self-compare: exit %d\n%s", code, out.String())
	}
	slower, err := bdbench.ReadRun(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := range slower.Series {
		for j := range slower.Series[i].Samples {
			slower.Series[i].Samples[j].Value = slower.Series[i].Samples[j].Value * 13 / 10
		}
	}
	slowBlob := filepath.Join(dir, "b.blob")
	if err := bdbench.WriteRun(slowBlob, slower); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errw.Reset()
	if code := run([]string{"compare", "-threshold", "0.15", blob, slowBlob}, &out, &errw); code != 1 {
		t.Fatalf("regressed compare: exit %d, want 1\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "regressed") || !strings.Contains(errw.String(), "bdbench:") {
		t.Fatalf("regression not reported:\nstdout %s\nstderr %s", out.String(), errw.String())
	}
}

// TestSampleSpecComparesCleanWithItself: the sample spec runs grep twice —
// once in GridMix's inventory, once open-loop — and each result needs its
// own name in the artifact, or compare aligns both with the first stream
// and a run "regresses" against itself.
func TestSampleSpecComparesCleanWithItself(t *testing.T) {
	blob := filepath.Join(t.TempDir(), "x.blob")
	var out, errw bytes.Buffer
	if code := run([]string{"run", "-spec", sampleSpec, "-out", blob}, &out, &errw); code != 0 {
		t.Fatalf("run: exit %d\n%s", code, errw.String())
	}
	out.Reset()
	if code := run([]string{"compare", blob, blob}, &out, &errw); code != 0 {
		t.Fatalf("self-compare: exit %d\n%s", code, out.String())
	}
	for _, stream := range []string{"grep/", "grep#2/request "} {
		if !strings.Contains(out.String(), stream) {
			t.Errorf("comparison lacks the %q streams:\n%s", stream, out.String())
		}
	}
}

// TestLoadcurveIsAScenarioRun: a sweep is one scenario run — its artifact
// is an ordinary scenario blob that show re-renders byte for byte, whose
// points (grep, grep#2) compare clean against themselves, and whose load
// table has one row per swept rate, in order.
func TestLoadcurveIsAScenarioRun(t *testing.T) {
	blob := filepath.Join(t.TempDir(), "f.blob")
	var live, errw bytes.Buffer
	args := []string{"loadcurve", "-workload", "grep", "-rates", "10,20", "-duration", "300ms", "-out", blob}
	if code := run(args, &live, &errw); code != 0 {
		t.Fatalf("loadcurve: exit %d\n%s", code, errw.String())
	}
	if !strings.Contains(errw.String(), "loadcurve: artifact written to "+blob) {
		t.Fatalf("no artifact note on stderr: %q", errw.String())
	}
	table := live.String()
	at := strings.Index(table, "latency under load")
	first, second := strings.Index(table, "constant  10/s"), strings.Index(table, "constant  20/s")
	if at < 0 || first < at || second < first {
		t.Fatalf("load table does not list the swept rates in order:\n%s", table)
	}

	var shown, meta, cmp bytes.Buffer
	if code := run([]string{"show", blob}, &shown, &errw); code != 0 || shown.String() != live.String() {
		t.Fatalf("show (exit %d) differs from the live report:\n--- live\n%s--- show\n%s", code, live.String(), shown.String())
	}
	if code := run([]string{"show", "-meta", blob}, &meta, &errw); code != 0 || !strings.HasPrefix(meta.String(), `scenario "loadcurve grep"`) {
		t.Fatalf("show -meta (exit %d): %s", code, meta.String())
	}
	if code := run([]string{"compare", blob, blob}, &cmp, &errw); code != 0 {
		t.Fatalf("self-compare: exit %d\n%s", code, cmp.String())
	}
	if !strings.Contains(cmp.String(), "grep#2/request ") {
		t.Errorf("second point is not its own stream:\n%s", cmp.String())
	}

	// Same flags as ever: a bad -format is refused before anything runs.
	if code := run([]string{"loadcurve", "-rates", "10", "-format", "yaml"}, &cmp, &errw); code != 1 {
		t.Fatalf("loadcurve -format yaml: exit %d, want 1", code)
	}
}

// TestFigure4IsStable: the report is the same bytes on every run once the
// step durations are masked, and the stacks come out sorted. It used to
// range over Go maps, so the four stack lines changed order run to run.
func TestFigure4IsStable(t *testing.T) {
	durations := regexp.MustCompile(`(?m)^(  step .*\S)\s+\S+$`)
	var first string
	for i := 0; i < 5; i++ {
		var out, errw bytes.Buffer
		if code := run([]string{"figure4", "-workers", "2"}, &out, &errw); code != 0 {
			t.Fatalf("figure4: exit %d\n%s", code, errw.String())
		}
		got := durations.ReplaceAllString(out.String(), "$1 <d>")
		if i == 0 {
			first = got
		} else if got != first {
			t.Fatalf("run %d printed a different report:\n%s\nfirst run:\n%s", i+1, got, first)
		}
	}
	var stacks []string
	for _, line := range strings.Split(first, "\n") {
		if name, _, ok := strings.Cut(strings.TrimSpace(line), " -> "); ok {
			stacks = append(stacks, strings.TrimSpace(name))
		}
	}
	if want := []string{"dbms", "mapreduce", "nosql", "reference"}; !reflect.DeepEqual(stacks, want) {
		t.Fatalf("stack lines %v, want %v\n%s", stacks, want, first)
	}
}
