package cluster

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/opcompose"
	"github.com/bdbench/bdbench/internal/runstore"
	"github.com/bdbench/bdbench/internal/scenario"
	"github.com/bdbench/bdbench/internal/testgen"
)

// TestCoordinateMatchesLocalRun is the determinism-equivalence contract:
// the same (spec, seed) run through a coordinator with 2 and with 4
// loopback agents produces a run artifact byte-identical to a
// single-process run — partitioning, the wire round trip and reassembly
// are invisible in the bytes.
func TestCoordinateMatchesLocalRun(t *testing.T) {
	reg := detRegistry(t)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.blob")
	if _, err := scenario.Run(context.Background(), detSpec(), localOptions(reg, localPath)); err != nil {
		t.Fatalf("local run: %v", err)
	}
	localRaw, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	localRun, err := runstore.Decode(localRaw)
	if err != nil {
		t.Fatalf("local blob: %v", err)
	}
	if len(localRun.Series) == 0 {
		t.Fatal("local run captured no series; the equivalence check would be vacuous")
	}

	for _, agents := range []int{2, 4} {
		t.Run(fmt.Sprintf("agents=%d", agents), func(t *testing.T) {
			path := filepath.Join(dir, fmt.Sprintf("dist-%d.blob", agents))
			urls := startAgents(t, reg, agents)
			out, err := Coordinate(context.Background(), detSpec(), coordOptions(reg, urls, path))
			if err != nil {
				t.Fatalf("coordinate: %v", err)
			}
			if len(out.Degraded) != 0 {
				t.Fatalf("clean run reported degraded: %v", out.Degraded)
			}
			if out.Failures != 0 {
				t.Fatalf("clean run reported %d failures", out.Failures)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, localRaw) {
				t.Fatalf("distributed blob differs from single-process blob:\n  local       %s\n  distributed %s",
					runstore.DigestBytes(localRaw), runstore.DigestBytes(raw))
			}
		})
	}
}

// TestCoordinateForwardsEvents checks the live progress stream: every task
// start/done pair arrives at the coordinator's OnEvent with its task index
// remapped into the global (single-process) numbering.
func TestCoordinateForwardsEvents(t *testing.T) {
	reg := detRegistry(t)
	urls := startAgents(t, reg, 2)
	var mu sync.Mutex
	starts := map[int]int{}
	dones := map[int]int{}
	opts := coordOptions(reg, urls, "")
	opts.OnEvent = func(e engine.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch e.Kind {
		case engine.EventTaskStart:
			starts[e.Task]++
		case engine.EventTaskDone:
			dones[e.Task]++
		}
	}
	if _, err := Coordinate(context.Background(), detSpec(), opts); err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	for task := 0; task < len(detNames); task++ {
		if starts[task] != 1 || dones[task] != 1 {
			t.Fatalf("task %d: %d start / %d done events, want 1/1 (starts=%v dones=%v)",
				task, starts[task], dones[task], starts, dones)
		}
	}
	if len(starts) != len(detNames) || len(dones) != len(detNames) {
		t.Fatalf("events for %d/%d tasks, want %d global task indices", len(starts), len(dones), len(detNames))
	}
}

// TestCoordinateMoreShardsThanAgents: shards beyond the agent count share
// agents round-robin, and the artifact is still byte-identical.
func TestCoordinateMoreShardsThanAgents(t *testing.T) {
	reg := detRegistry(t)
	dir := t.TempDir()
	localPath := filepath.Join(dir, "local.blob")
	if _, err := scenario.Run(context.Background(), detSpec(), localOptions(reg, localPath)); err != nil {
		t.Fatalf("local run: %v", err)
	}
	localRaw, err := os.ReadFile(localPath)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dist.blob")
	urls := startAgents(t, reg, 2)
	opts := coordOptions(reg, urls, path)
	opts.Shards = 5 // one task per shard, two agents
	if _, err := Coordinate(context.Background(), detSpec(), opts); err != nil {
		t.Fatalf("coordinate: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, localRaw) {
		t.Fatalf("5-shard blob differs from single-process blob: %s vs %s",
			runstore.DigestBytes(raw), runstore.DigestBytes(localRaw))
	}
}

func TestCoordinateNoAgents(t *testing.T) {
	if _, err := Coordinate(context.Background(), detSpec(), Options{}); err == nil {
		t.Fatal("coordinate with no agents succeeded")
	}
}

func TestCoordinateCancelledContext(t *testing.T) {
	reg := detRegistry(t)
	urls := startAgents(t, reg, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := Coordinate(ctx, detSpec(), coordOptions(reg, urls, ""))
	if err == nil {
		t.Fatalf("cancelled coordinate succeeded: %+v", out)
	}
	if out != nil && len(out.Degraded) > 0 {
		t.Fatalf("cancellation must abort, not degrade: %v", out.Degraded)
	}
}

// TestPatternMatchesThroughAgents: a composed pattern times its operations
// on the collector's clock, which an agent's engine sets as a local engine
// does, so a frozen-clock pattern spec writes the same blob either way.
func TestPatternMatchesThroughAgents(t *testing.T) {
	reg, spec := scenario.NewRegistry(), detSpec()
	spec.Entries = []scenario.Entry{{Pattern: &opcompose.Pattern{
		Name:        "mix",
		Corpus:      "weblog",
		OpsPerScale: 400,
		Ops:         []opcompose.OpWeight{{Op: "filter", Weight: 2}, {Op: "aggregate"}, {Op: "scan"}},
	}}}
	dir := t.TempDir()
	local, dist := filepath.Join(dir, "local.blob"), filepath.Join(dir, "dist.blob")
	if _, err := scenario.Run(context.Background(), spec, localOptions(reg, local)); err != nil {
		t.Fatal(err)
	}
	if _, err := Coordinate(context.Background(), spec, coordOptions(reg, startAgents(t, reg, 2), dist)); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(local)
	b, _ := os.ReadFile(dist)
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("local blob %s, through two agents %s", runstore.DigestBytes(a), runstore.DigestBytes(b))
	}
}

// builtinSpec runs every built-in workload once, plus a composed pattern, a
// prescription bound to the mapreduce stack and an open-loop grep window,
// with every machine-dependent default pinned. Its registry is the built-in
// inventory and the bound prescription; agents get the same one.
func builtinSpec(t *testing.T, parallel int) (*scenario.Registry, scenario.Spec) {
	t.Helper()
	reg := scenario.NewRegistry()
	bound, err := testgen.Bind(testgen.Config{Prescription: "select-count", Stack: "mapreduce"})
	if err != nil {
		t.Fatal(err)
	}
	var entries []scenario.Entry
	for _, w := range append(scenario.Default().Workloads(), bound) {
		if err := reg.RegisterWorkload(w); err != nil {
			t.Fatal(err)
		}
		entries = append(entries, scenario.Entry{Workload: w.Name()})
	}
	entries = append(entries, scenario.Entry{Pattern: &opcompose.Pattern{
		Name:        "mix",
		Corpus:      "weblog",
		OpsPerScale: 400,
		Ops:         []opcompose.OpWeight{{Op: "filter", Weight: 2}, {Op: "aggregate"}, {Op: "scan"}},
		// At 1 op/s the paced half would sleep 200 s of wall time; under
		// the frozen clock it sleeps none.
		Phases: []opcompose.Phase{{Name: "burst"}, {Name: "paced", Rate: 1}},
	}}, scenario.Entry{
		// Under the frozen clock every arrival is released at once, each
		// to a worker of its own, so the window is kept to tens of them.
		Workload: "grep", Rate: 100, Arrival: "poisson", Duration: scenario.Duration(150 * time.Millisecond),
	})
	return reg, scenario.Spec{
		Name:           "builtins",
		Entries:        entries,
		Seed:           2014,
		Scale:          1,
		Workers:        2,
		DatagenWorkers: 2,
		Parallel:       parallel,
	}
}

// TestBuiltinsMatchAcrossAgentsAndParallelism extends the equivalence
// contract from synthetic to real workloads: under a frozen run clock, every
// built-in, a composed pattern with a paced phase, a bound prescription and
// an open-loop window write the same blob run twice locally and through 2
// and 4 agents, and the same series at Parallel 1. Every duration a
// workload, a stack or the load generator measures reads the collector's
// clock, so the frozen clock reaches them on an agent too, and neither a
// paced phase nor the open-loop dispatcher sleeps wall time under it.
func TestBuiltinsMatchAcrossAgentsAndParallelism(t *testing.T) {
	dir := t.TempDir()
	blob := func(name string, run func(path string) (*scenario.Outcome, error)) []byte {
		t.Helper()
		path := filepath.Join(dir, name+".blob")
		out, err := run(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Failures != 0 || len(out.Degraded) != 0 {
			t.Fatalf("%s: %d failure(s), degraded %v", name, out.Failures, out.Degraded)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	reg, spec := builtinSpec(t, 2)
	local := func(spec scenario.Spec) func(string) (*scenario.Outcome, error) {
		return func(path string) (*scenario.Outcome, error) {
			return scenario.Run(context.Background(), spec, localOptions(reg, path))
		}
	}
	t0 := time.Now()
	want := blob("local", local(spec))
	if took := time.Since(t0); took > 100*time.Second {
		t.Fatalf("a frozen-clock run took %v: the paced phase slept wall time", took)
	}
	run, err := runstore.Decode(want)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Series) < 100 {
		t.Fatalf("%d series; the check wants at least 100 to mean something", len(run.Series))
	}
	requests := 0
	for _, s := range run.Series {
		if s.Op == loadgen.OpRequest {
			requests += len(s.Samples)
		}
	}
	if requests == 0 || requests > 20 {
		t.Fatalf("the open-loop window captured %d requests, want 1 to 20", requests)
	}

	if again := blob("again", local(spec)); !bytes.Equal(again, want) {
		t.Fatalf("two local runs differ: %s vs %s", runstore.DigestBytes(want), runstore.DigestBytes(again))
	}
	for _, agents := range []int{2, 4} {
		urls := startAgents(t, reg, agents)
		got := blob(fmt.Sprintf("agents-%d", agents), func(path string) (*scenario.Outcome, error) {
			return Coordinate(context.Background(), spec, coordOptions(reg, urls, path))
		})
		if !bytes.Equal(got, want) {
			t.Fatalf("%d agents: blob %s, local %s", agents, runstore.DigestBytes(got), runstore.DigestBytes(want))
		}
	}

	_, serial := builtinSpec(t, 1)
	one, err := runstore.Decode(blob("parallel-1", local(serial)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Series, run.Series) {
		t.Fatal("Parallel 1 captured different series than Parallel 2")
	}
}
