package bdbench_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	bdbench "github.com/bdbench/bdbench"
)

// evenCount is a custom workload an external caller might write: it
// "processes" a deterministic record stream on no particular stack and
// records counters and latencies like any built-in workload.
type evenCount struct{}

func (evenCount) Name() string                    { return "even-count" }
func (evenCount) Category() bdbench.Category      { return bdbench.Online }
func (evenCount) Domain() string                  { return "example" }
func (evenCount) StackTypes() []bdbench.StackType { return []bdbench.StackType{bdbench.StackNoSQL} }
func (evenCount) Run(ctx context.Context, p bdbench.Params, c *bdbench.Collector) error {
	evens := 0
	check := c.Op("check")
	for i := 0; i < 100*p.Scale; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		t0 := check.StartTimer()
		if i%2 == 0 {
			evens++
		}
		check.ObserveSince(t0)
	}
	c.CounterRef("evens").Add(int64(evens))
	c.CounterRef("records").Add(int64(100 * p.Scale))
	return nil
}

// ExampleRun demonstrates the whole public flow: register a custom
// workload, compose a scenario mixing it with a built-in suite's
// inventory, run it on the concurrent engine, and export the outcome with
// a reporter.
func ExampleRun() {
	// Register: the custom workload joins the default registry next to the
	// built-in inventory.
	if err := bdbench.Register(evenCount{}); err != nil {
		fmt.Println("register:", err)
		return
	}

	// Compose: one entry picks a workload out of a suite, the other
	// selects the custom workload with a per-entry scale override.
	scenario := bdbench.Scenario{
		Name: "example",
		Entries: []bdbench.Entry{
			{Suite: "GridMix", Workload: "sort"},
			{Workload: "even-count", Scale: 3},
		},
		Seed: 7,
	}

	// Run: workload outputs are seed-deterministic at any parallelism.
	out, err := bdbench.Run(context.Background(), scenario)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	for _, r := range out.Results {
		fmt.Printf("%s (%s) ok=%v\n", r.Workload, r.Category, r.Err == nil)
	}
	fmt.Println("evens counted:", out.Results[1].Result.Counters["evens"])

	// Export: any reporter renders the same outcome.
	var buf bytes.Buffer
	if err := bdbench.NewJSONReporter().Report(&buf, out); err != nil {
		fmt.Println("report:", err)
		return
	}
	fmt.Println("custom workload exported:", strings.Contains(buf.String(), `"workload": "even-count"`))

	// Output:
	// sort (online services) ok=true
	// even-count (online services) ok=true
	// evens counted: 150
	// custom workload exported: true
}

// ExampleRun_underLoad demonstrates open-loop load generation: the same
// scenario machinery, but executions are dispatched at a controlled
// offered rate with Poisson arrivals and latency is measured from each
// operation's intended start — so queueing under overload is visible in
// the percentiles instead of being hidden by coordinated omission. The
// offered load is part of the scenario, like everything else in the recipe.
func ExampleRun_underLoad() {
	scenario := bdbench.Scenario{
		Name:     "latency under load",
		Entries:  []bdbench.Entry{{Workload: "grep"}},
		Seed:     7,
		Rate:     200,
		Arrival:  "poisson",
		Duration: bdbench.Duration(100 * time.Millisecond),
	}
	out, err := bdbench.Run(context.Background(), scenario)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	st := out.Results[0].Load
	// Wall-clock latencies vary run to run; the schedule does not: the
	// same seed, rate and window always offer the identical load.
	fmt.Printf("arrival=%s offered=%g/s window=%v\n", st.Arrival, st.Offered, st.Window)
	fmt.Println("all dispatched:", st.Dispatched == st.Scheduled && st.Scheduled > 0)
	fmt.Println("latencies measured:", st.Latency.Count == uint64(st.Dispatched))

	// Output:
	// arrival=poisson offered=200/s window=100ms
	// all dispatched: true
	// latencies measured: true
}

// ExampleRun_sweepRates demonstrates a throughput-vs-latency sweep: one
// entry per offered rate (the rate is the entry's only override), the
// window and arrival process scenario-wide, and Parallel 1 so the points
// run one after another and never compete for the machine. The outcome's
// results — and the reporters' "latency under load" table — are the curve,
// one row per rate in entry order; `bdbench loadcurve` builds exactly this.
func ExampleRun_sweepRates() {
	scenario := bdbench.Scenario{
		Name:     "sweep grep",
		Seed:     7,
		Duration: bdbench.Duration(100 * time.Millisecond),
		Parallel: 1,
	}
	for _, rate := range []float64{50, 100, 200} {
		scenario.Entries = append(scenario.Entries, bdbench.Entry{Workload: "grep", Rate: rate})
	}
	out, err := bdbench.Run(context.Background(), scenario)
	if err != nil {
		fmt.Println("run:", err)
		return
	}
	for _, r := range out.Results {
		fmt.Printf("%s arrival=%s offered=%g/s measured=%v\n",
			r.Workload, r.Load.Arrival, r.Load.Offered, r.Load.Latency.Count == uint64(r.Load.Dispatched))
	}

	// Output:
	// grep arrival=constant offered=50/s measured=true
	// grep arrival=constant offered=100/s measured=true
	// grep arrival=constant offered=200/s measured=true
}
