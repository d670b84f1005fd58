package scenario

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestLoadFieldsRoundTrip verifies the rate/arrival/duration fields
// survive JSON round-tripping at both scenario and entry level.
func TestLoadFieldsRoundTrip(t *testing.T) {
	s := Spec{
		Name:     "load",
		Entries:  []Entry{{Workload: "alpha", Rate: 50, Arrival: "poisson", Duration: Duration(2 * time.Second)}},
		Rate:     25,
		Arrival:  "bursty",
		Duration: Duration(5 * time.Second),
	}
	raw, err := s.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rate != 25 || got.Arrival != "bursty" || time.Duration(got.Duration) != 5*time.Second {
		t.Fatalf("scenario load fields lost: %+v", got)
	}
	e := got.Entries[0]
	if e.Rate != 50 || e.Arrival != "poisson" || time.Duration(e.Duration) != 2*time.Second {
		t.Fatalf("entry load fields lost: %+v", e)
	}
}

// TestLoadValidation covers the load-field error paths.
func TestLoadValidation(t *testing.T) {
	reg := testRegistry(t)
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"negative rate", Spec{Entries: []Entry{{Workload: "alpha"}}, Rate: -1}, "negative load"},
		{"negative duration", Spec{Entries: []Entry{{Workload: "alpha"}}, Rate: 5, Duration: -1}, "negative load"},
		{"arrival without rate", Spec{Entries: []Entry{{Workload: "alpha"}}, Arrival: "poisson"}, "without a rate"},
		{"duration without rate", Spec{Entries: []Entry{{Workload: "alpha"}}, Duration: Duration(time.Second)}, "without a rate"},
		{"unknown arrival", Spec{Entries: []Entry{{Workload: "alpha"}}, Rate: 5, Arrival: "fractal"}, "unknown arrival"},
		{"entry negative rate", Spec{Entries: []Entry{{Workload: "alpha", Rate: -3}}}, "negative load override"},
		{"entry arrival without rate", Spec{Entries: []Entry{{Workload: "alpha", Arrival: "ramp"}}}, "without a rate"},
		{"entry unknown arrival", Spec{Entries: []Entry{{Workload: "alpha", Rate: 5, Arrival: "nope"}}}, "unknown arrival"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(reg)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadResolution verifies defaulting and entry-level inheritance: an
// entry rate switches only that entry to open-loop, entry overrides beat
// scenario-wide values, and arrival/duration default to constant/10s.
func TestLoadResolution(t *testing.T) {
	reg := testRegistry(t)

	// Scenario-wide rate: every task open-loop with defaults filled.
	s := Spec{Entries: []Entry{{Workload: "alpha"}, {Workload: "zeta"}}, Rate: 20}
	tasks, err := s.Tasks(reg)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.Load == nil {
			t.Fatalf("task %s not open-loop", task.Workload.Name())
		}
		if task.Load.Rate != 20 || task.Load.Arrival.Name() != "constant" || task.Load.Duration != DefaultLoadWindow {
			t.Fatalf("defaults not applied: %+v", task.Load)
		}
	}

	// Entry-level only: first entry open-loop, second closed.
	s = Spec{Entries: []Entry{
		{Workload: "alpha", Rate: 40, Arrival: "poisson", Duration: Duration(time.Second)},
		{Workload: "zeta"},
	}}
	tasks, err = s.Tasks(reg)
	if err != nil {
		t.Fatal(err)
	}
	if tasks[0].Load == nil || tasks[0].Load.Rate != 40 ||
		tasks[0].Load.Arrival.Name() != "poisson" || tasks[0].Load.Duration != time.Second {
		t.Fatalf("entry load override lost: %+v", tasks[0].Load)
	}
	if tasks[1].Load != nil {
		t.Fatalf("closed-loop entry gained a load spec: %+v", tasks[1].Load)
	}

	// Entry overrides layered on scenario-wide settings, seed inherited.
	s = Spec{
		Entries: []Entry{{Workload: "alpha", Rate: 80, Seed: 99}},
		Rate:    20, Arrival: "ramp", Duration: Duration(3 * time.Second),
		Seed: 7,
	}
	tasks, err = s.Tasks(reg)
	if err != nil {
		t.Fatal(err)
	}
	l := tasks[0].Load
	if l.Rate != 80 || l.Arrival.Name() != "ramp" || l.Duration != 3*time.Second || l.Seed != 99 {
		t.Fatalf("override layering wrong: %+v", l)
	}
}

// TestRunOpenLoop runs a spec with a rate end to end and checks the
// outcome: load statistics per result, achieved rate in the summary and
// the open-loop execution step detail.
func TestRunOpenLoop(t *testing.T) {
	reg := testRegistry(t)
	s := Spec{
		Name:     "under load",
		Entries:  []Entry{{Workload: "alpha"}},
		Rate:     100,
		Duration: Duration(200 * time.Millisecond),
	}
	out, err := Run(context.Background(), s, Options{Registry: reg})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	r := out.Results[0]
	if r.Load == nil {
		t.Fatal("result missing load statistics")
	}
	if r.Load.Scheduled != 20 || r.Load.Dispatched != 20 {
		t.Fatalf("scheduled/dispatched %d/%d, want 20/20", r.Load.Scheduled, r.Load.Dispatched)
	}
	if r.Load.Arrival != "constant" {
		t.Fatalf("arrival %q, want constant default", r.Load.Arrival)
	}
	if got := out.Summary[r.Category]; got != r.Load.Achieved {
		t.Fatalf("summary %v, want achieved rate %v", got, r.Load.Achieved)
	}
	var execDetail string
	for _, st := range out.Steps {
		if st.Step == StepExecution {
			execDetail = st.Detail
		}
	}
	if !strings.Contains(execDetail, "open-loop") {
		t.Fatalf("execution step does not mention open-loop: %q", execDetail)
	}
}
