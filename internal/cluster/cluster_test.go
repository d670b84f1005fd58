package cluster

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/scenario"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/workloads"
)

// The equivalence harness: byte-identical artifacts require every input of
// the artifact to be deterministic, so the tests freeze the run's one clock
// (Options.Now: step traces, the artifact stamp and, through the engine,
// every collector) and pin the machine-dependent spec defaults. Most run
// synthetic workloads whose observations derive purely from (seed, name,
// scale); TestBuiltinsMatchAcrossAgentsAndParallelism runs the built-ins.

const frozenUnix int64 = 1754600000

func frozenNow() time.Time { return time.Unix(frozenUnix, 0) }

// detWorkload records a seed-derived latency stream: same (seed, name,
// scale) in, same observations out, on any machine at any parallelism.
type detWorkload struct {
	name string
	cat  workloads.Category
}

func (w detWorkload) Name() string                 { return w.name }
func (w detWorkload) Category() workloads.Category { return w.cat }
func (w detWorkload) Domain() string               { return "det" }
func (w detWorkload) StackTypes() []stacks.Type    { return []stacks.Type{stacks.TypeMapReduce} }

func (w detWorkload) Run(_ context.Context, p workloads.Params, c *metrics.Collector) error {
	state := p.Seed
	for _, ch := range w.name {
		state = state*31 + uint64(ch)
	}
	ops := [...]string{"read", "write", "scan"}
	for i := 0; i < 30*p.Scale; i++ {
		state = state*6364136223846793005 + 1442695040888963407
		c.Op(ops[i%len(ops)]).Observe(time.Duration(state % 1_000_000))
	}
	c.CounterRef("records").Add(int64(30 * p.Scale))
	return nil
}

var detNames = []string{"det-a", "det-b", "det-c", "det-d", "det-e"}

func detRegistry(t *testing.T) *scenario.Registry {
	t.Helper()
	r := scenario.NewRegistry()
	cats := []workloads.Category{workloads.Online, workloads.Offline, workloads.Realtime}
	for i, name := range detNames {
		if err := r.RegisterWorkload(detWorkload{name: name, cat: cats[i%len(cats)]}); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// detSpec pins every normalization default that depends on the machine
// (Parallel, DatagenWorkers default to GOMAXPROCS) so the normalized spec —
// and with it the spec digest and the artifact payload — is identical
// everywhere.
func detSpec() scenario.Spec {
	entries := make([]scenario.Entry, len(detNames))
	for i, n := range detNames {
		entries[i] = scenario.Entry{Workload: n}
	}
	return scenario.Spec{
		Name:           "equivalence",
		Entries:        entries,
		Seed:           2014,
		Scale:          2,
		Workers:        2,
		DatagenWorkers: 2,
		Parallel:       2,
		Reps:           2,
	}
}

func startAgents(t *testing.T, reg *scenario.Registry, n int) []string {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		srv := httptest.NewServer(NewAgent(AgentOptions{
			Registry:  reg,
			Now:       frozenNow,
			Heartbeat: 50 * time.Millisecond,
		}).Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

func coordOptions(reg *scenario.Registry, agents []string, out string) Options {
	return Options{
		Agents:         agents,
		Registry:       reg,
		RunOutput:      out,
		SampleCapacity: 512,
		ToolVersion:    "test",
		Now:            frozenNow,
	}
}

func localOptions(reg *scenario.Registry, out string) scenario.Options {
	return scenario.Options{
		Registry:       reg,
		RunOutput:      out,
		SampleCapacity: 512,
		ToolVersion:    "test",
		Now:            frozenNow,
	}
}
