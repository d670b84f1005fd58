package report

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
	"github.com/bdbench/bdbench/internal/workloads"
)

func sampleOutcome() *scenario.Outcome {
	return &scenario.Outcome{
		Spec: scenario.Spec{Name: "sample", Entries: []scenario.Entry{{Suite: "S"}}}.Normalized(),
		Results: []scenario.Result{
			{
				Suite: "S", Workload: "w1", Category: workloads.Online,
				Result: metrics.Result{Name: "w1", Elapsed: 120 * time.Millisecond, Throughput: 1000},
				Reps:   []metrics.Result{{}, {}},
			},
			{
				Workload: "w2", Category: workloads.Offline,
				Err: errors.New("boom"), Error: "boom",
			},
		},
		Summary:  map[workloads.Category]float64{workloads.Online: 1000},
		Failures: 1,
	}
}

func TestTextReporter(t *testing.T) {
	var b strings.Builder
	if err := (TextReporter{}).Report(&b, sampleOutcome()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"w1", "FAIL: boom", "online services", "1 workload(s) failed", "1000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestMarkdownReporter(t *testing.T) {
	var b strings.Builder
	if err := (MarkdownReporter{}).Report(&b, sampleOutcome()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "| workload |") || !strings.Contains(out, "| w1 |") {
		t.Fatalf("markdown table malformed:\n%s", out)
	}
}

func TestJSONReporterRoundTrips(t *testing.T) {
	var b strings.Builder
	if err := (JSONReporter{}).Report(&b, sampleOutcome()); err != nil {
		t.Fatal(err)
	}
	var back scenario.Outcome
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if back.Spec.Name != "sample" || len(back.Results) != 2 {
		t.Fatalf("decoded %+v", back)
	}
	if back.Results[1].Error != "boom" {
		t.Fatalf("error not exported: %+v", back.Results[1])
	}
	if back.Failures != 1 {
		t.Fatalf("failures %d", back.Failures)
	}
}

func sampleLoadStats(offered float64) *loadgen.Stats {
	return &loadgen.Stats{
		Arrival: "poisson", Offered: offered, Achieved: offered * 0.9,
		Window: time.Second, Elapsed: time.Second,
		Scheduled: int(offered), Dispatched: int(offered), Errors: 1,
		Latency: loadgen.LatencySummary{
			Count: uint64(offered), Mean: 2 * time.Millisecond,
			P50: time.Millisecond, P95: 4 * time.Millisecond,
			P99: 9 * time.Millisecond, Max: 20 * time.Millisecond,
		},
	}
}

// TestReportersIncludeLoadTable verifies the latency-under-load section
// appears in text and markdown outcomes exactly when a result ran
// open-loop, and that a sweep — one workload at three rates — renders as
// three rows in rate order: the table is the load curve.
func TestReportersIncludeLoadTable(t *testing.T) {
	o := sampleOutcome()
	var b strings.Builder
	if err := (TextReporter{}).Report(&b, o); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "latency under load") {
		t.Fatal("closed-loop outcome grew a load table")
	}

	o.Results = nil
	for _, rate := range []float64{100, 200, 400} {
		o.Results = append(o.Results, scenario.Result{
			Workload: "w1", Category: workloads.Online, Load: sampleLoadStats(rate),
		})
	}
	inOrder := func(out string, rows ...string) {
		t.Helper()
		at := 0
		for _, row := range rows {
			i := strings.Index(out[at:], row)
			if i < 0 {
				t.Fatalf("load table lacks %q after offset %d:\n%s", row, at, out)
			}
			at += i + len(row)
		}
	}
	b.Reset()
	if err := (TextReporter{}).Report(&b, o); err != nil {
		t.Fatal(err)
	}
	inOrder(b.String(), "latency under load", "poisson  100/s    90/s", "poisson  200/s    180/s", "poisson  400/s    360/s")
	if n := len(LoadRows(o)); n != 3 {
		t.Fatalf("%d load rows for three open-loop results", n)
	}

	b.Reset()
	if err := (MarkdownReporter{}).Report(&b, o); err != nil {
		t.Fatal(err)
	}
	inOrder(b.String(), "**latency under load", "| w1 | poisson | 100/s | 90/s | 1ms | 4ms | 9ms | 20ms | 1 |",
		"| w1 | poisson | 200/s |", "| w1 | poisson | 400/s |")
}

// TestJSONReporterCarriesLoad verifies the JSON outcome export includes
// the load statistics verbatim.
func TestJSONReporterCarriesLoad(t *testing.T) {
	o := sampleOutcome()
	o.Results[0].Load = sampleLoadStats(100)
	var b strings.Builder
	if err := (JSONReporter{}).Report(&b, o); err != nil {
		t.Fatal(err)
	}
	var back struct {
		Results []struct {
			Workload string         `json:"workload"`
			Load     *loadgen.Stats `json:"load"`
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(b.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Results[0].Load == nil || back.Results[0].Load.Offered != 100 {
		t.Fatalf("json outcome lost load stats: %+v", back.Results[0])
	}
	if back.Results[1].Load != nil {
		t.Fatal("closed-loop result gained load stats")
	}
}

// TestRenderRunOtherKindsAreJSONDocuments: only a scenario payload goes
// through the reporters. Any other kind — here the two retired ones, a
// loadcurve blob written before sweeps became scenarios and a bench blob
// written by the deleted microbenchmark gate — renders as the JSON document
// it is, in every format, instead of failing as an unknown kind.
func TestRenderRunOtherKindsAreJSONDocuments(t *testing.T) {
	for _, kind := range []string{"loadcurve", "bench"} {
		t.Run(kind, func(t *testing.T) { testRendersAsJSONDocument(t, kind) })
	}
}

func testRendersAsJSONDocument(t *testing.T, kind string) {
	run := &runstore.Run{Meta: runstore.Meta{
		Kind:    kind,
		Payload: json.RawMessage(`{"workload":"grep","points":[{"offered":10,"p99":2496000}]}`),
	}}
	for _, format := range []string{"text", "markdown", "json"} {
		var b strings.Builder
		if err := RenderRun(&b, run, format); err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		var doc struct {
			Workload string `json:"workload"`
			Points   []struct {
				Offered float64 `json:"offered"`
			} `json:"points"`
		}
		if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
			t.Fatalf("%s: output is not the JSON payload: %v\n%s", format, err, b.String())
		}
		if doc.Workload != "grep" || len(doc.Points) != 1 || doc.Points[0].Offered != 10 {
			t.Fatalf("%s: payload lost: %+v", format, doc)
		}
	}
	run.Meta.Payload = nil
	if err := RenderRun(&strings.Builder{}, run, "text"); err == nil {
		t.Fatal("a run with no payload rendered")
	}
}
