package testgen

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestRegistryVocabulary(t *testing.T) {
	var names []string
	for _, op := range operations {
		names = append(names, op.Name)
	}
	sort.Strings(names)
	want := []string{"count", "delete", "distinct", "enrich", "get", "join", "project", "put", "select", "sort", "top", "union"}
	if len(names) != len(want) {
		t.Fatalf("ops %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("ops[%d] = %s, want %s", i, names[i], want[i])
		}
	}
	if _, err := Op("nope"); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestOperationArities(t *testing.T) {
	arities := map[string]Arity{
		"select": ElementOp, "project": ElementOp, "put": ElementOp,
		"get": ElementOp, "delete": ElementOp, "enrich": ElementOp,
		"sort": SingleSetOp, "count": SingleSetOp, "distinct": SingleSetOp, "top": SingleSetOp,
		"union": DoubleSetOp, "join": DoubleSetOp,
	}
	for name, want := range arities {
		op, err := Op(name)
		if err != nil {
			t.Fatal(err)
		}
		if op.Arity != want {
			t.Fatalf("%s arity %s, want %s", name, op.Arity, want)
		}
	}
}

func TestReferenceSemantics(t *testing.T) {
	d := Dataset{{"k1", "apple pie"}, {"k2", "banana"}, {"k3", "apple tart"}}

	sel, _ := mustOp(t, "select").Apply(d, nil, "apple")
	if len(sel) != 2 {
		t.Fatalf("select %v", sel)
	}
	cnt, _ := mustOp(t, "count").Apply(d, nil, "")
	if cnt[0].Value != "3" {
		t.Fatalf("count %v", cnt)
	}
	got, _ := mustOp(t, "get").Apply(d, nil, "k2")
	if len(got) != 1 || got[0].Value != "banana" {
		t.Fatalf("get %v", got)
	}
	del, _ := mustOp(t, "delete").Apply(d, nil, "k2")
	if len(del) != 2 {
		t.Fatalf("delete %v", del)
	}
	put, _ := mustOp(t, "put").Apply(d, nil, "k2=cherry")
	if put.Normalize()[1].Value != "cherry" {
		t.Fatalf("put-update %v", put)
	}
	putNew, _ := mustOp(t, "put").Apply(d, nil, "k9=new")
	if len(putNew) != 4 {
		t.Fatalf("put-insert %v", putNew)
	}
	if _, err := mustOp(t, "put").Apply(d, nil, "noequals"); err == nil {
		t.Fatal("bad put arg accepted")
	}
	srt, _ := mustOp(t, "sort").Apply(Dataset{{"b", "2"}, {"a", "1"}}, nil, "")
	if srt[0].Key != "a" {
		t.Fatalf("sort %v", srt)
	}
	dis, _ := mustOp(t, "distinct").Apply(Dataset{{"a", "1"}, {"a", "1"}, {"a", "2"}}, nil, "")
	if len(dis) != 2 {
		t.Fatalf("distinct %v", dis)
	}
	top, _ := mustOp(t, "top").Apply(d, nil, "2")
	if len(top) != 2 {
		t.Fatalf("top %v", top)
	}
	if _, err := mustOp(t, "top").Apply(d, nil, "x"); err == nil {
		t.Fatal("bad top arg accepted")
	}
	uni, _ := mustOp(t, "union").Apply(d, Dataset{{"z", "9"}}, "")
	if len(uni) != 4 {
		t.Fatalf("union %v", uni)
	}
	join, _ := mustOp(t, "join").Apply(
		Dataset{{"k", "left"}},
		Dataset{{"k", "right1"}, {"k", "right2"}, {"x", "no"}}, "")
	if len(join) != 2 || join[0].Value != "left|right1" {
		t.Fatalf("join %v", join)
	}
}

func mustOp(t *testing.T, name string) Operation {
	t.Helper()
	op, err := Op(name)
	if err != nil {
		t.Fatal(err)
	}
	return op
}

func TestDatasetEqual(t *testing.T) {
	a := Dataset{{"b", "2"}, {"a", "1"}}
	b := Dataset{{"a", "1"}, {"b", "2"}}
	if !a.Equal(b) {
		t.Fatal("order should not matter")
	}
	if a.Equal(Dataset{{"a", "1"}}) {
		t.Fatal("length mismatch accepted")
	}
	if a.Equal(Dataset{{"a", "1"}, {"b", "X"}}) {
		t.Fatal("value mismatch accepted")
	}
}

func TestPrescriptionValidate(t *testing.T) {
	for _, p := range prescriptions {
		if err := p.Validate(); err != nil {
			t.Fatalf("builtin %q invalid: %v", p.Name, err)
		}
	}
	bad := []Prescription{
		{},
		{Name: "x", Data: DataSpec{Source: "words", Size: 1}},
		{Name: "x", Data: DataSpec{Source: "words", Size: 1}, Kind: SinglePattern,
			Steps: []Step{{Op: "sort"}, {Op: "count"}}},
		{Name: "x", Data: DataSpec{Source: "words", Size: 1}, Kind: IterativePattern,
			Steps: []Step{{Op: "sort"}}},
		{Name: "x", Data: DataSpec{Source: "words", Size: 1}, Kind: IterativePattern,
			Steps: []Step{{Op: "sort"}}, Stop: StopCondition("weird")},
		{Name: "x", Data: DataSpec{Source: "words", Size: 0}, Kind: SinglePattern,
			Steps: []Step{{Op: "sort"}}},
		{Name: "x", Data: DataSpec{Source: "words", Size: 1}, Kind: SinglePattern,
			Steps: []Step{{Op: "nope"}}},
		{Name: "x", Data: DataSpec{Source: "words", Size: 1}, Kind: SinglePattern,
			Steps: []Step{{Op: "sort", UseSecond: true}}},
		{Name: "x", Data: DataSpec{Source: "words", Size: 1}, Kind: SinglePattern,
			Steps: []Step{{Op: "join", UseSecond: true}}}, // missing SecondSize
		{Name: "x", Data: DataSpec{Source: "words", Size: 1, SecondSize: 1}, Kind: SinglePattern,
			Steps: []Step{{Op: "join"}}}, // double-set without use_second
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad prescription %d accepted", i)
		}
	}
}

func TestPrescriptionJSONRoundTrip(t *testing.T) {
	for _, p := range prescriptions {
		raw, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		var got Prescription
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, p) {
			t.Fatalf("round trip %+v, want %+v", got, p)
		}
	}
}

func TestRepository(t *testing.T) {
	names := Names()
	if len(names) != len(prescriptions) || !sort.StringsAreSorted(names) {
		t.Fatalf("names %v", names)
	}
	for _, name := range names {
		if p, err := Find(name); err != nil || p.Name != name {
			t.Fatalf("Find(%q) = %+v, %v", name, p, err)
		}
	}
	if _, err := Find("missing"); err == nil {
		t.Fatal("missing accepted")
	}
}

func TestGenerateData(t *testing.T) {
	main, second, err := GenerateData(DataSpec{Source: "words", Size: 100, Seed: 1, SecondSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(main) != 100 || len(second) != 10 {
		t.Fatalf("sizes %d/%d", len(main), len(second))
	}
	// Deterministic.
	again, _, _ := GenerateData(DataSpec{Source: "words", Size: 100, Seed: 1, SecondSize: 10})
	if !main.Equal(again) {
		t.Fatal("data generation not deterministic")
	}
	if _, _, err := GenerateData(DataSpec{Source: "nope", Size: 1}); err == nil {
		t.Fatal("unknown source accepted")
	}
}

func TestAllExecutorsAgreeOnBuiltins(t *testing.T) {
	// The paper's central testgen claim (E10): the same abstract test
	// produces the same functional outcome on every software stack.
	for _, p := range prescriptions {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			results, err := VerifyPortability(context.Background(), p, 4)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != len(Stacks()) {
				t.Fatalf("results from %d stacks, want %d", len(results), len(Stacks()))
			}
		})
	}
}

// TestPortabilityRegressions runs minimal prescriptions on which a stack
// once disagreed with the reference, and pins the reference's answer too.
func TestPortabilityRegressions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps []Step
		want  Dataset
	}{
		// A mapreduce reduce over no keys emitted no count record at all.
		{"count-of-nothing", []Step{{Op: "get", Arg: "nope"}, {Op: "count"}}, Dataset{{"count", "0"}}},
		// dbms read SQL's LIMIT 0 as no limit and returned every row.
		{"top-0", []Step{{Op: "top", Arg: "0"}}, Dataset{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kind := MultiPattern
			if len(tc.steps) == 1 {
				kind = SinglePattern
			}
			p := Prescription{Name: tc.name, Data: DataSpec{Source: "pairs", Size: 5, Seed: 1}, Kind: kind, Steps: tc.steps}
			results, err := VerifyPortability(context.Background(), p, 2)
			if err != nil {
				t.Fatal(err)
			}
			if got := results["reference"]; !got.Equal(tc.want) {
				t.Fatalf("reference gave %v, want %v", got, tc.want)
			}
		})
	}
}

func TestIterativePatternStops(t *testing.T) {
	p := Prescription{
		Name:    "iter",
		Data:    DataSpec{Source: "words", Size: 2000, Seed: 9},
		Kind:    IterativePattern,
		Steps:   []Step{{Op: "select", Arg: "data"}},
		Stop:    StopWhenStable,
		MaxIter: 50,
	}
	c := metrics.NewCollector("iter")
	out, err := RunOn(context.Background(), &ReferenceExecutor{}, p, c)
	if err != nil {
		t.Fatal(err)
	}
	iters := c.Snapshot().Counters["iterations"]
	// select is idempotent, so exactly 2 iterations: one that shrinks,
	// one that observes stability.
	if iters != 2 {
		t.Fatalf("iterations %d, want 2", iters)
	}
	for _, rec := range out {
		if !strings.Contains(rec.Value, "data") {
			t.Fatalf("non-matching record survived: %v", rec)
		}
	}
}

func TestIterativeBelowSize(t *testing.T) {
	p := Prescription{
		Name:    "shrink",
		Data:    DataSpec{Source: "words", Size: 1000, Seed: 10},
		Kind:    IterativePattern,
		Steps:   []Step{{Op: "top", Arg: "500"}, {Op: "top", Arg: "250"}},
		Stop:    StopBelowSize,
		StopArg: 300,
		MaxIter: 50,
	}
	c := metrics.NewCollector("shrink")
	out, err := RunOn(context.Background(), &ReferenceExecutor{}, p, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) >= 300 {
		t.Fatalf("stop condition ignored: %d records", len(out))
	}
}

func TestPipelineTrace(t *testing.T) {
	p, tests, trace, err := Generate(
		DataSpec{Source: "pairs", Size: 500, Seed: 1},
		[]Step{{Op: "select", Arg: "v"}, {Op: "count"}},
		MultiPattern, "", 0,
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 5 {
		t.Fatalf("trace steps %d, want 5 (Figure 4)", len(trace))
	}
	for i, tr := range trace {
		if tr.Step != i+1 || tr.Name == "" {
			t.Fatalf("trace %d: %+v", i, tr)
		}
	}
	// Step 5 bound the prescription to every stack, in Stacks order, and
	// each prescribed test runs.
	if len(tests) != len(Stacks()) {
		t.Fatalf("tests %d", len(tests))
	}
	for i, stack := range Stacks() {
		w := tests[i]
		if w.Name() != p.Name+"@"+stack {
			t.Fatalf("test %d is %q, want stack %s", i, w.Name(), stack)
		}
		c := metrics.NewCollector("t")
		if err := w.Run(context.Background(), workloads.Params{Workers: 2}, c); err != nil {
			t.Fatal(err)
		}
		if got := c.Snapshot().Counters["records"]; got != 1 {
			t.Fatalf("%s: %d records, want the one count row", w.Name(), got)
		}
	}
}

func TestPipelineRejectsUnknownOp(t *testing.T) {
	_, _, _, err := Generate(DataSpec{Source: "pairs", Size: 10, Seed: 1},
		[]Step{{Op: "explode"}}, SinglePattern, "", 0)
	if err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestDBMSExecutorPointOps(t *testing.T) {
	e := NewDBMSExecutor()
	if err := e.Load(Dataset{{"k1", "v1"}, {"k2", "v2"}}, nil); err != nil {
		t.Fatal(err)
	}
	steps := []Step{
		{Op: "put", Arg: "k3=v3"},
		{Op: "put", Arg: "k1=updated"},
		{Op: "delete", Arg: "k2"},
	}
	for _, s := range steps {
		if err := e.Exec(s); err != nil {
			t.Fatalf("%s: %v", s.Op, err)
		}
	}
	out, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	want := Dataset{{"k1", "updated"}, {"k3", "v3"}}
	if !out.Equal(want) {
		t.Fatalf("result %v, want %v", out, want)
	}
}

func TestNoSQLExecutorCollapsedState(t *testing.T) {
	e := NewNoSQLExecutor()
	// Duplicate keys after a join force the collapsed client-side path.
	if err := e.Load(Dataset{{"k", "a"}}, nil); err != nil {
		t.Fatal(err)
	}
	e.second = Dataset{{"k", "x"}, {"k", "y"}}
	if err := e.Exec(Step{Op: "join", UseSecond: true}); err != nil {
		t.Fatal(err)
	}
	out, _ := e.Result()
	if len(out) != 2 {
		t.Fatalf("join result %v", out)
	}
	// Further ops on collapsed state still work.
	if err := e.Exec(Step{Op: "count"}); err != nil {
		t.Fatal(err)
	}
	out, _ = e.Result()
	if out[0].Value != "2" {
		t.Fatalf("count on collapsed %v", out)
	}
}

func TestMapReduceExecutorUnsupportedOp(t *testing.T) {
	e := NewMapReduceExecutor(2)
	if err := e.Load(Dataset{{"a", "b"}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Exec(Step{Op: "custom"}); err == nil {
		t.Fatal("unsupported op accepted")
	}
}

// TestBindFunctionalView: binding is deterministic and the functional view
// does not depend on the stack — every built-in prescription, bound to
// every stack and run twice at the same seed and scale, yields one record
// count. Each bound workload declares its table row's stack type and the
// documented Category and Domain defaults.
func TestBindFunctionalView(t *testing.T) {
	if !slices.IsSorted(Stacks()) {
		t.Fatalf("Stacks() = %v, want sorted", Stacks())
	}
	for _, name := range Names() {
		want := int64(-1)
		for i, stack := range Stacks() {
			for rep := 0; rep < 2; rep++ {
				w, err := Bind(Config{Prescription: name, Stack: stack})
				if err != nil {
					t.Fatal(err)
				}
				if got := w.StackTypes(); !slices.Equal(got, []stacks.Type{stackTable[i].typ}) {
					t.Fatalf("%s: StackTypes() = %v, want [%s]", w.Name(), got, stackTable[i].typ)
				}
				if w.Category() != workloads.Online || w.Domain() != "abstract operations" {
					t.Fatalf("%s: category %q, domain %q; want the defaults", w.Name(), w.Category(), w.Domain())
				}
				c := metrics.NewCollector(w.Name())
				if err := w.Run(context.Background(), workloads.Params{Seed: 7, Scale: 2, Workers: 2}, c); err != nil {
					t.Fatalf("%s: %v", w.Name(), err)
				}
				if got := c.Snapshot().Counters["records"]; want < 0 {
					want = got
				} else if got != want {
					t.Fatalf("%s run %d: %d records, other stacks and runs produced %d", w.Name(), rep, got, want)
				}
			}
		}
	}
}

// cancelAfter reports context.Canceled from its n-th Err call on, so a test
// can cancel a run at an exact step boundary.
type cancelAfter struct {
	context.Context
	n atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBoundTestStopsWhenCancelled: a prescription workload observes its
// context before every step. iterative-shrink on dbms (a table reload per
// step) used to run all its iterations after -timeout had fired; the engine
// waits for a cancelled run to return, so those iterations would now hold
// up the whole run.
func TestBoundTestStopsWhenCancelled(t *testing.T) {
	w, err := Bind(Config{Prescription: "iterative-shrink", Stack: "dbms"})
	if err != nil {
		t.Fatal(err)
	}
	full := metrics.NewCollector(w.Name())
	if err := w.Run(context.Background(), workloads.Params{}, full); err != nil {
		t.Fatal(err)
	}
	if steps := full.Snapshot().Counters["operations"]; steps < 2 {
		t.Fatalf("uncancelled run took %d steps; the test needs a second step to cut", steps)
	}

	before := runtime.NumGoroutine()
	// Err answers nil three times — the workload's entry check, RunOn's
	// and the check before step 1 — so the cancellation lands between
	// step 1 and step 2.
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(3)
	c := metrics.NewCollector(w.Name())
	err = w.Run(ctx, workloads.Params{}, c)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	if steps := c.Snapshot().Counters["operations"]; steps != 1 {
		t.Fatalf("%d steps ran after the cancel point, want exactly the one before it", steps)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("goroutines %d, %d before the cancelled run", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
