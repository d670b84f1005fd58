package bdbench_test

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	bdbench "github.com/bdbench/bdbench"
)

// TestCustomWorkloadThroughPublicAPI is the external-caller path end to
// end: an isolated registry, a custom workload, a run through bdbench.Run
// and its appearance in the JSON reporter's output.
func TestCustomWorkloadThroughPublicAPI(t *testing.T) {
	reg := bdbench.NewRegistry()
	if err := reg.RegisterWorkload(evenCount{}); err != nil {
		t.Fatal(err)
	}
	events := 0
	out, err := bdbench.Run(context.Background(),
		bdbench.Scenario{Entries: []bdbench.Entry{{Workload: "even-count"}}, Seed: 3, Scale: 2},
		bdbench.WithRegistry(reg),
		bdbench.WithEvents(func(bdbench.Event) { events++ }),
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Results[0].Result.Counters["evens"]; got != 100 {
		t.Fatalf("evens %d, want deterministic 100", got)
	}
	if events < 3 {
		t.Fatalf("events %d, want task-start/rep-done/task-done", events)
	}
	var buf bytes.Buffer
	if err := bdbench.NewJSONReporter().Report(&buf, out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"workload": "even-count"`) {
		t.Fatalf("custom workload missing from JSON output:\n%s", buf.String())
	}
}

// TestLoadThroughPublicAPI drives a custom workload open-loop — the
// scenario declares the offered load — and checks the latency-under-load
// surfaces: the LoadStats digest on the result and the text reporter's
// load table.
func TestLoadThroughPublicAPI(t *testing.T) {
	reg := bdbench.NewRegistry()
	if err := reg.RegisterWorkload(evenCount{}); err != nil {
		t.Fatal(err)
	}
	out, err := bdbench.Run(context.Background(),
		bdbench.Scenario{
			Entries: []bdbench.Entry{{Workload: "even-count"}}, Seed: 3,
			Rate: 100, Arrival: "poisson", Duration: bdbench.Duration(200 * time.Millisecond),
		},
		bdbench.WithRegistry(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Results[0].Load
	if st == nil {
		t.Fatal("open-loop run returned no LoadStats")
	}
	if st.Offered != 100 || st.Arrival != "poisson" || st.Window != 200*time.Millisecond {
		t.Fatalf("load settings lost: %+v", st)
	}
	if st.Dispatched == 0 || st.Latency.Count == 0 {
		t.Fatalf("no operations measured: %+v", st)
	}
	var buf bytes.Buffer
	if err := bdbench.NewTextReporter().Report(&buf, out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "latency under load") {
		t.Fatalf("text report missing load table:\n%s", buf.String())
	}
}

// TestArrivalsListed pins the public arrival-process names.
func TestArrivalsListed(t *testing.T) {
	got := strings.Join(bdbench.Arrivals(), ",")
	if got != "constant,poisson,bursty,ramp,replay" {
		t.Fatalf("Arrivals() = %s", got)
	}
}

// TestSampleScenarioSpec guards the checked-in spec file: it parses
// strictly, validates against the default registry, mixes rows from at
// least two suites, and carries a per-entry scale override plus an
// open-loop load entry (rate/arrival/duration).
func TestSampleScenarioSpec(t *testing.T) {
	sc, err := bdbench.LoadScenario("testdata/scenario.sample.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(bdbench.DefaultRegistry()); err != nil {
		t.Fatal(err)
	}
	suites := map[string]bool{}
	override := false
	for _, e := range sc.Entries {
		if e.Suite != "" {
			suites[e.Suite] = true
		}
		if e.Scale > 0 || e.Reps > 0 {
			override = true
		}
	}
	if len(suites) < 2 {
		t.Fatalf("sample spec mixes %d suites, want >= 2", len(suites))
	}
	if !override {
		t.Fatal("sample spec has no per-entry overrides")
	}
	loadEntry := false
	for _, e := range sc.Entries {
		if e.Rate > 0 && e.Arrival != "" && e.Duration > 0 {
			loadEntry = true
		}
	}
	if !loadEntry {
		t.Fatal("sample spec has no open-loop load entry")
	}
	// Round trip.
	raw, err := sc.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bdbench.ParseScenario(raw); err != nil {
		t.Fatal(err)
	}
}

func TestReporterForUnknownFormat(t *testing.T) {
	if _, err := bdbench.ReporterFor("yaml"); err == nil {
		t.Fatal("unknown format accepted")
	}
	for _, f := range bdbench.Formats() {
		r, err := bdbench.ReporterFor(f)
		if err != nil || r.Format() != f {
			t.Fatalf("format %s: %v %v", f, r, err)
		}
	}
}

func TestPrescriptionWorkloadPublic(t *testing.T) {
	names := bdbench.Prescriptions()
	if len(names) == 0 {
		t.Fatal("no prescriptions listed")
	}
	w, err := bdbench.NewPrescriptionWorkload(bdbench.PrescriptionConfig{
		Prescription: names[0],
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() == "" {
		t.Fatal("empty derived name")
	}
}

// TestDefaultRegistryInventory pins the built-in inventory exactly: the
// suites' rows are the only list, so a workload dropped from (or added to)
// a row changes what `bdbench workloads` offers, and shows here.
func TestDefaultRegistryInventory(t *testing.T) {
	reg := bdbench.DefaultRegistry()
	wantWorkloads := []string{
		"collaborative-filtering", "connected-components", "grep", "inverted-index",
		"kmeans", "linkbench-ops", "naive-bayes", "pagerank", "pavlo-dbms",
		"pavlo-mapreduce", "rolling-aggregate", "sort", "terasort", "url-count",
		"windowed-count", "wordcount",
		"ycsb-A", "ycsb-B", "ycsb-C", "ycsb-D", "ycsb-E", "ycsb-F",
	}
	wantSuites := []string{
		"HiBench", "GridMix", "PigMix", "YCSB", "Performance benchmark (Pavlo)",
		"TPC-DS", "BigBench", "LinkBench", "CloudSuite", "BigDataBench",
		"bdbench (this work)",
	}
	var got []string
	for _, w := range reg.Workloads() {
		if name := w.Name(); name != (evenCount{}).Name() { // ExampleRun registers it on a -count=2 rerun
			got = append(got, name)
		}
	}
	if !reflect.DeepEqual(got, wantWorkloads) {
		t.Errorf("built-in workloads %v\nwant %v", got, wantWorkloads)
	}
	if got := reg.SuiteNames(); !reflect.DeepEqual(got, wantSuites) {
		t.Errorf("built-in suites %v\nwant %v (Table 1 order)", got, wantSuites)
	}
}
