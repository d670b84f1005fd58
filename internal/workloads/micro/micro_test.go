package micro

import (
	"context"
	"hash/fnv"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/workloads"
)

func runWorkload(t *testing.T, w workloads.Workload) *metrics.Collector {
	t.Helper()
	c := metrics.NewCollector(w.Name())
	c.Start()
	if err := w.Run(context.Background(), workloads.Params{Seed: 42, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	c.Stop()
	return c
}

func TestWordCount(t *testing.T) {
	c := runWorkload(t, WordCount{})
	if c.Snapshot().Counters["records"] != 1000 {
		t.Fatalf("records %d", c.Snapshot().Counters["records"])
	}
	if c.Snapshot().Counters["shuffle_bytes"] == 0 {
		t.Fatal("no shuffle bytes recorded")
	}
}

func TestGrep(t *testing.T) {
	c := runWorkload(t, Grep{})
	if c.Snapshot().Counters["matches"] == 0 {
		t.Fatal("grep found no matches (pattern 'data' is in the dictionary)")
	}
	// grep is map-only: the engine binds a reduce_task handle that no task
	// ever observes, and a never-observed label is not an operation.
	for _, op := range c.Snapshot().Ops {
		if op.Count == 0 {
			t.Fatalf("op %q reported with zero observations", op.Op)
		}
	}
}

func TestSort(t *testing.T) {
	runWorkload(t, Sort{})
}

func TestTeraSort(t *testing.T) {
	runWorkload(t, TeraSort{})
}

func TestMetadata(t *testing.T) {
	for _, w := range []workloads.Workload{WordCount{}, Grep{}, Sort{}, TeraSort{}} {
		if w.Name() == "" || w.Domain() != "micro" || w.Category() != workloads.Offline {
			t.Fatalf("%T metadata wrong", w)
		}
		if len(w.StackTypes()) != 1 || w.StackTypes()[0] != stacks.TypeMapReduce {
			t.Fatalf("%T stack types wrong", w)
		}
	}
}

// TestTextInputCorpusPinned holds the generated text corpus (digest taken
// before the line buffer was reused: same dictionary draws, same order) and
// what a line may cost: its key, its value and a share of the chunk's slice,
// not a builder regrown from nil.
func TestTextInputCorpusPinned(t *testing.T) {
	p := workloads.Params{Seed: 2014, Scale: 2, DatagenWorkers: 2}
	c := metrics.NewCollector("text")
	in := textInput(p, 10, c)
	h := fnv.New64a()
	for _, kv := range in {
		h.Write([]byte(kv.Key))
		h.Write([]byte{0})
		h.Write([]byte(kv.Value))
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); len(in) != 2000 || got != 0x7827c807afd32c39 {
		t.Fatalf("text corpus moved: %d lines, digest %#x", len(in), got)
	}
	perLine := testing.AllocsPerRun(5, func() { textInput(p, 10, c) }) / float64(len(in))
	if perLine > 3 && !raceflag.Enabled {
		t.Errorf("textInput allocates %.2f objects per line, want at most 3", perLine)
	}
}
