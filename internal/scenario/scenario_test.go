package scenario

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/profiling"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/suites"
	"github.com/bdbench/bdbench/internal/testgen"
	"github.com/bdbench/bdbench/internal/workloads"
)

// fakeWorkload is a minimal deterministic workload for registry and run
// tests.
type fakeWorkload struct {
	name   string
	cat    workloads.Category
	domain string
	fail   bool
}

func (f fakeWorkload) Name() string                 { return f.name }
func (f fakeWorkload) Category() workloads.Category { return f.cat }
func (f fakeWorkload) Domain() string               { return f.domain }
func (f fakeWorkload) StackTypes() []stacks.Type    { return []stacks.Type{stacks.TypeMapReduce} }
func (f fakeWorkload) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	if f.fail {
		return errors.New("boom")
	}
	for i := 0; i < 10*p.Scale; i++ {
		c.ObserveLatency("op", time.Microsecond)
	}
	c.Add("records", int64(10*p.Scale))
	c.Add("scale", int64(p.Scale))
	c.Add("seed", int64(p.Seed))
	return nil
}

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	r := NewRegistry()
	for _, w := range []fakeWorkload{
		{name: "zeta", cat: workloads.Online, domain: "d1"},
		{name: "alpha", cat: workloads.Offline, domain: "d1"},
		{name: "mid", cat: workloads.Offline, domain: "d2"},
	} {
		if err := r.RegisterWorkload(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.RegisterSuite(suites.Suite{
		Name: "S1",
		Rows: []suites.WorkloadRow{
			{Category: workloads.Online, Runners: []workloads.Workload{fakeWorkload{name: "s1-a", cat: workloads.Online, domain: "d1"}}},
			{Category: workloads.Offline, Runners: []workloads.Workload{fakeWorkload{name: "s1-b", cat: workloads.Offline, domain: "d2"}}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := r.RegisterSuite(suites.Suite{
		Name: "S2",
		Rows: []suites.WorkloadRow{
			{Category: workloads.Realtime, Runners: []workloads.Workload{fakeWorkload{name: "s2-a", cat: workloads.Realtime, domain: "d3"}}},
		},
	}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRegistryDuplicateAndUnknown(t *testing.T) {
	r := testRegistry(t)
	if err := r.RegisterWorkload(fakeWorkload{name: "alpha"}); err == nil {
		t.Fatal("duplicate workload registration accepted")
	}
	if err := r.RegisterWorkload(fakeWorkload{}); err == nil {
		t.Fatal("empty workload name accepted")
	}
	if err := r.RegisterSuite(suites.Suite{Name: "S1"}); err == nil {
		t.Fatal("duplicate suite registration accepted")
	}
	if err := r.RegisterSuite(suites.Suite{}); err == nil {
		t.Fatal("empty suite name accepted")
	}
	if _, ok := r.Workload("nope"); ok {
		t.Fatal("unknown workload found")
	}
	if _, ok := r.Suite("nope"); ok {
		t.Fatal("unknown suite found")
	}
	if w, ok := r.Workload("alpha"); !ok || w.Name() != "alpha" {
		t.Fatalf("lookup alpha: %v %v", w, ok)
	}
}

// workloadNames lists the registry's workloads in the order Workloads
// iterates them.
func workloadNames(r *Registry) []string {
	var names []string
	for _, w := range r.Workloads() {
		names = append(names, w.Name())
	}
	return names
}

func TestRegistryDeterministicOrder(t *testing.T) {
	r := testRegistry(t)
	want := []string{"alpha", "mid", "zeta"}
	if got := workloadNames(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("workload names %v, want sorted %v", got, want)
	}
	// Iteration order is stable across calls and sorted regardless of
	// registration order.
	for i := 0; i < 3; i++ {
		names := make([]string, 0)
		for _, w := range r.Workloads() {
			names = append(names, w.Name())
		}
		if !reflect.DeepEqual(names, want) {
			t.Fatalf("iteration %d: %v", i, names)
		}
	}
	if got := r.SuiteNames(); !reflect.DeepEqual(got, []string{"S1", "S2"}) {
		t.Fatalf("suite names %v, want registration order", got)
	}
}

func TestDefaultRegistrySeeded(t *testing.T) {
	r := Default()
	if _, ok := r.Workload("sort"); !ok {
		t.Fatal("built-in workload 'sort' not seeded")
	}
	if _, ok := r.Workload("linkbench-ops"); !ok {
		t.Fatal("linkbench-ops not seeded")
	}
	if _, ok := r.Suite("BigDataBench"); !ok {
		t.Fatal("suite BigDataBench not seeded")
	}
	if n := len(r.SuiteNames()); n < 11 {
		t.Fatalf("default registry has %d suites, want >= 11", n)
	}
}

// TestSeedRejectsNameClash: suites share workloads, so seeding meets the
// same workload more than once and registers it once; two different
// workloads under one name would make a spec entry mean whichever suite
// came first, and are refused.
func TestSeedRejectsNameClash(t *testing.T) {
	suite := func(name string, w workloads.Workload) suites.Suite {
		return suites.Suite{Name: name, Rows: []suites.WorkloadRow{{Category: workloads.Online, Runners: []workloads.Workload{w}}}}
	}
	shared := fakeWorkload{name: "shared", cat: workloads.Online, domain: "d1"}
	r := NewRegistry()
	if err := r.seed([]suites.Suite{suite("A", shared), suite("B", shared)}); err != nil {
		t.Fatalf("the same workload in two suites: %v", err)
	}
	if got := workloadNames(r); !reflect.DeepEqual(got, []string{"shared"}) {
		t.Fatalf("workloads %v, want the shared one once", got)
	}
	other := shared
	other.domain = "d2"
	err := NewRegistry().seed([]suites.Suite{suite("A", shared), suite("B", other)})
	if err == nil || !strings.Contains(err.Error(), `"shared"`) {
		t.Fatalf("two different workloads named alike: err = %v", err)
	}
}

func TestSpecValidateErrors(t *testing.T) {
	r := testRegistry(t)
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no entries", Spec{}, "no entries"},
		{"bad suite", Spec{Entries: []Entry{{Suite: "missing"}}}, "unknown suite"},
		{"bad workload", Spec{Entries: []Entry{{Workload: "missing"}}}, "unknown workload"},
		{"bad category", Spec{Entries: []Entry{{Category: "sideways analytics"}}}, "unknown category"},
		{"bad stack", Spec{Entries: []Entry{{Stack: "quantum"}}}, "unknown stack"},
		{"empty selection", Spec{Entries: []Entry{{Suite: "S1", Domain: "d9"}}}, "selects no workloads"},
		{"workload not in suite", Spec{Entries: []Entry{{Suite: "S1", Workload: "alpha"}}}, "not in suite"},
		{"negative scale", Spec{Scale: -1, Entries: []Entry{{Suite: "S1"}}}, "negative"},
		{"negative reps", Spec{Reps: -2, Entries: []Entry{{Suite: "S1"}}}, "negative"},
		{"negative timeout", Spec{Timeout: -1, Entries: []Entry{{Suite: "S1"}}}, "negative"},
		{"negative entry override", Spec{Entries: []Entry{{Suite: "S1", Scale: -3}}}, "negative override"},
	}
	for _, tc := range cases {
		err := tc.spec.Validate(r)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	ok := Spec{Entries: []Entry{{Suite: "S1"}, {Workload: "alpha"}}}
	if err := ok.Validate(r); err != nil {
		t.Fatal(err)
	}
}

// TestValidateReportsNormalizedValues: validation errors describe the
// normalized values the scenario would run with — defaulting happens in
// Normalized, exactly once, and is visible rather than silent.
func TestValidateReportsNormalizedValues(t *testing.T) {
	err := Spec{Name: "x", Scale: -1}.Validate(testRegistry(t))
	if err == nil {
		t.Fatal("negative scale accepted")
	}
	for _, want := range []string{"workers=4", "reps=1"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not report normalized %s", err, want)
		}
	}
}

func TestNormalizedDefaultsOnce(t *testing.T) {
	n := Spec{Entries: []Entry{{Suite: "S1"}}}.Normalized()
	if n.Scale != 1 || n.Workers != 4 || n.Reps != 1 || n.Parallel <= 0 {
		t.Fatalf("normalized %+v", n)
	}
	// Normalizing a normalized spec is the identity.
	if !reflect.DeepEqual(n.Normalized(), n) {
		t.Fatal("Normalized is not idempotent")
	}
	// Explicit values survive.
	n2 := Spec{Scale: 7, Workers: 2, Reps: 3, Parallel: 5}.Normalized()
	if n2.Scale != 7 || n2.Workers != 2 || n2.Reps != 3 || n2.Parallel != 5 {
		t.Fatalf("normalized overwrote explicit values: %+v", n2)
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	orig := Spec{
		Name: "mix",
		Entries: []Entry{
			{Suite: "S1", Category: "online services", Scale: 3, Reps: 2},
			{Workload: "alpha", Seed: 99},
		},
		Scale:   2,
		Workers: 8,
		Seed:    42,
		Reps:    2,
		Warmup:  1,
		Timeout: Duration(90 * time.Second),
	}
	raw, err := orig.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"timeout": "1m30s"`) {
		t.Fatalf("timeout not serialized as a duration string:\n%s", raw)
	}
	back, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", orig, back)
	}
}

func TestParseRejectsUnknownFieldsAndBadDurations(t *testing.T) {
	if _, err := Parse([]byte(`{"entries":[],"sclae":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse([]byte(`{"entries":[],"timeout":"soon"}`)); err == nil {
		t.Fatal("bad duration accepted")
	}
	// Placement is not part of a spec: a file carrying it must fail loudly,
	// not run a slice of the scenario with nothing marking it partial.
	if _, err := Parse([]byte(`{"entries":[{"workload":"grep"}],"shardIndex":1,"shardCount":2}`)); err == nil {
		t.Fatal("spec with shard placement accepted")
	}
	s, err := Parse([]byte(`{"entries":[{"suite":"S1"}],"timeout":30000000000}`))
	if err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.Timeout) != 30*time.Second {
		t.Fatalf("numeric timeout %v", s.Timeout)
	}
}

func TestTasksCrossSuiteWithOverrides(t *testing.T) {
	r := testRegistry(t)
	spec := Spec{
		Entries: []Entry{
			{Suite: "S1", Scale: 5, Reps: 3},
			{Suite: "S2"},
			{Workload: "alpha", Seed: 77, Workers: 2},
		},
		Scale: 2,
		Seed:  10,
	}
	tasks, err := spec.Tasks(r)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(tasks))
	for i, task := range tasks {
		names[i] = task.Workload.Name()
	}
	if want := []string{"s1-a", "s1-b", "s2-a", "alpha"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("tasks %v, want %v", names, want)
	}
	// Entry 0: scale override 5, inherited seed 10, reps override 3.
	if p := tasks[0].Params; p.Scale != 5 || p.Seed != 10 || p.Workers != 4 {
		t.Fatalf("entry 0 params %+v", p)
	}
	if tasks[0].Reps != 3 || tasks[0].Suite != "S1" || tasks[0].Entry != 0 {
		t.Fatalf("entry 0 task %+v", tasks[0])
	}
	// Entry 1: all inherited.
	if p := tasks[2].Params; p.Scale != 2 || p.Seed != 10 {
		t.Fatalf("entry 1 params %+v", p)
	}
	if tasks[2].Reps != 0 || tasks[2].Suite != "S2" {
		t.Fatalf("entry 1 task %+v", tasks[2])
	}
	// Entry 2: registry selection with seed and workers overrides.
	if p := tasks[3].Params; p.Seed != 77 || p.Workers != 2 || p.Scale != 2 {
		t.Fatalf("entry 2 params %+v", p)
	}
	if tasks[3].Suite != "" || tasks[3].Category != workloads.Offline {
		t.Fatalf("entry 2 task %+v", tasks[3])
	}
}

func TestTasksFilters(t *testing.T) {
	r := testRegistry(t)
	// Category filter against a suite.
	tasks, err := Spec{Entries: []Entry{{Suite: "S1", Category: string(workloads.Offline)}}}.Tasks(r)
	if err != nil || len(tasks) != 1 || tasks[0].Workload.Name() != "s1-b" {
		t.Fatalf("category filter: %v %v", tasks, err)
	}
	// Domain filter registry-wide.
	tasks, err = Spec{Entries: []Entry{{Domain: "d1"}}}.Tasks(r)
	if err != nil || len(tasks) != 2 {
		t.Fatalf("domain filter: %v %v", tasks, err)
	}
	// Stack filter matches everything (all fakes are mapreduce).
	tasks, err = Spec{Entries: []Entry{{Stack: "mapreduce"}}}.Tasks(r)
	if err != nil || len(tasks) != 3 {
		t.Fatalf("stack filter: %v %v", tasks, err)
	}
}

func TestRunEndToEndWithEventsAndOverrides(t *testing.T) {
	r := testRegistry(t)
	spec := Spec{
		Name: "e2e",
		Entries: []Entry{
			{Suite: "S1", Scale: 3},
			{Suite: "S2", Reps: 2},
		},
		Seed: 9,
	}
	events := 0
	out, err := Run(context.Background(), spec, Options{
		Registry: r,
		OnEvent:  func(e engine.Event) { events++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Steps) != 5 {
		t.Fatalf("steps %d, want 5", len(out.Steps))
	}
	if len(out.Results) != 3 {
		t.Fatalf("results %d", len(out.Results))
	}
	// Entry 0's scale override is honored: the fake records scale into a
	// counter.
	for _, res := range out.Results[:2] {
		if got := res.Result.Counters["scale"]; got != 3 {
			t.Fatalf("%s ran at scale %d, want override 3", res.Workload, got)
		}
		if res.Suite != "S1" {
			t.Fatalf("%s suite %q", res.Workload, res.Suite)
		}
	}
	if got := out.Results[2].Result.Counters["scale"]; got != 1 {
		t.Fatalf("s2-a ran at scale %d, want default 1", got)
	}
	// Entry 1's per-entry reps override is honored.
	if n := len(out.Results[2].Reps); n != 2 {
		t.Fatalf("s2-a reps %d, want 2", n)
	}
	if n := len(out.Results[0].Reps); n != 1 {
		t.Fatalf("s1-a reps %d, want 1", n)
	}
	// Events streamed: at least task-start + rep-done + task-done per task.
	if events < 9 {
		t.Fatalf("events %d, want >= 9", events)
	}
	// Summary covers the three categories.
	if len(out.Summary) != 3 {
		t.Fatalf("summary %+v", out.Summary)
	}
	if out.Failures != 0 {
		t.Fatalf("failures %d", out.Failures)
	}
}

func TestRunReportsFailures(t *testing.T) {
	r := testRegistry(t)
	if err := r.RegisterWorkload(fakeWorkload{name: "bad", cat: workloads.Online, fail: true}); err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Spec{Entries: []Entry{{Workload: "bad"}, {Workload: "alpha"}}},
		Options{Registry: r})
	if err == nil || !strings.Contains(err.Error(), "1 workload(s) failed") {
		t.Fatalf("err %v", err)
	}
	if out == nil || out.Failures != 1 {
		t.Fatalf("outcome %+v", out)
	}
	if out.Results[0].Error == "" || out.Results[0].Err == nil {
		t.Fatalf("failed result %+v", out.Results[0])
	}
	if out.Results[1].Err != nil {
		t.Fatalf("healthy workload failed: %v", out.Results[1].Err)
	}
}

func TestRunValidationFailureReturnsNilOutcome(t *testing.T) {
	out, err := Run(context.Background(), Spec{Entries: []Entry{{Suite: "missing"}}},
		Options{Registry: testRegistry(t)})
	if err == nil || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestRunCancelledBeforeProbes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Run(ctx, Spec{Entries: []Entry{{Suite: "S1"}}}, Options{Registry: testRegistry(t)})
	if !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestPrescriptionWorkload(t *testing.T) {
	if _, err := testgen.Bind(testgen.Config{Prescription: "missing"}); err == nil {
		t.Fatal("unknown prescription accepted")
	}
	if _, err := testgen.Bind(testgen.Config{Prescription: "select-count", Stack: "quantum"}); err == nil {
		t.Fatal("unknown stack accepted")
	}
	w, err := testgen.Bind(testgen.Config{Prescription: "select-count", Stack: "mapreduce"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "select-count@mapreduce" || w.Category() != workloads.Online {
		t.Fatalf("derived identity %s/%s", w.Name(), w.Category())
	}
	if st := w.StackTypes(); len(st) != 1 || st[0] != stacks.TypeMapReduce {
		t.Fatalf("stack types %v", st)
	}
	r := NewRegistry()
	if err := r.RegisterWorkload(w); err != nil {
		t.Fatal(err)
	}
	out, err := Run(context.Background(), Spec{Entries: []Entry{{Workload: w.Name()}}}, Options{Registry: r})
	if err != nil {
		t.Fatal(err)
	}
	if rec := out.Results[0].Result.Counters["records"]; rec <= 0 {
		t.Fatalf("prescription produced %d records", rec)
	}
}

// TestRunWithProfile runs a scenario with every profiler enabled and
// checks the advertised files land in the requested directory — the
// plumbing behind bdbench.WithProfile and the CLI's -profile flag.
func TestRunWithProfile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof")
	out, err := Run(context.Background(), Spec{Entries: []Entry{{Suite: "S1"}}}, Options{
		Registry:   testRegistry(t),
		Profile:    []profiling.Mode{profiling.ModeCPU, profiling.ModeMem, profiling.ModeAllocs, profiling.ModeTrace},
		ProfileDir: dir,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if out == nil || len(out.Results) == 0 {
		t.Fatalf("outcome %+v", out)
	}
	for _, name := range []string{"cpu.pprof", "mem.pprof", "allocs.pprof", "trace.out"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s: empty profile", name)
		}
	}
	// An unknown mode fails before any workload executes.
	if _, err := Run(context.Background(), Spec{Entries: []Entry{{Suite: "S1"}}}, Options{
		Registry: testRegistry(t),
		Profile:  []profiling.Mode{"heap"},
	}); err == nil {
		t.Fatal("unknown profile mode accepted")
	}
}
