package micro

import (
	"context"
	"hash/fnv"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/workloads"
)

func runWorkload(t *testing.T, w workloads.Workload) *metrics.Collector {
	t.Helper()
	c := metrics.NewCollector(w.Name())
	if err := w.Run(context.Background(), workloads.Params{Seed: 42, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	return c
}

func TestWordCount(t *testing.T) {
	c := runWorkload(t, WordCount)
	if c.Snapshot().Counters["records"] != 1000 {
		t.Fatalf("records %d", c.Snapshot().Counters["records"])
	}
	if c.Snapshot().Counters["shuffle_bytes"] == 0 {
		t.Fatal("no shuffle bytes recorded")
	}
}

func TestGrep(t *testing.T) {
	c := runWorkload(t, Grep)
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
	runWorkload(t, Sort)
}

func TestTeraSort(t *testing.T) {
	runWorkload(t, TeraSort)
}

func TestMetadata(t *testing.T) {
	for _, w := range []workloads.Workload{WordCount, Grep, Sort, TeraSort} {
		if w.Name() == "" || w.Domain() != "micro" || w.Category() != workloads.Offline {
			t.Fatalf("%T metadata wrong", w)
		}
		if len(w.StackTypes()) != 1 || w.StackTypes()[0] != stacks.TypeMapReduce {
			t.Fatalf("%T stack types wrong", w)
		}
	}
}

// TestTextInputCorpusPinned holds the generated text corpus (digest taken
// when every key and value was a string of its own: same dictionary draws,
// same order) and what growing it costs.
func TestTextInputCorpusPinned(t *testing.T) {
	pinInput(t, func(p workloads.Params, c *metrics.Collector) []mapreduce.KV { return textInput(p, 10, c) }, 0x7827c807afd32c39)
}

// TestKeyInputPinned is TestTextInputCorpusPinned for the sort inputs.
func TestKeyInputPinned(t *testing.T) {
	pinInput(t, keyInput, 0xf6b5998fd53a4035)
}

// pinInput holds build's 2000 records at Scale 2 to the digest want, and
// holds its allocations to the chunk count: from Scale 2 (one chunk) to
// Scale 16 (four chunks, and a second worker) they may grow by a small
// constant per added chunk, never by one or more per record.
func pinInput(t *testing.T, build func(workloads.Params, *metrics.Collector) []mapreduce.KV, want uint64) {
	t.Helper()
	p := workloads.Params{Seed: 2014, Scale: 2, DatagenWorkers: 2}
	c := metrics.NewCollector("input")
	in := build(p, c)
	h := fnv.New64a()
	for _, kv := range in {
		h.Write([]byte(kv.Key))
		h.Write([]byte{0})
		h.Write([]byte(kv.Value))
		h.Write([]byte{'\n'})
	}
	if got := h.Sum64(); len(in) != 2000 || got != want {
		t.Fatalf("input moved: %d records, digest %#x, want 2000 and %#x", len(in), got, want)
	}
	if raceflag.Enabled {
		return
	}
	allocs := func(scale int) float64 {
		p.Scale = scale
		// Truncation hides under one allocation a call; a per-record one adds 14 000 between Scale 2 and 16.
		return testing.AllocsPerRun(5, func() { build(p, c) })
	}
	const perChunk = 16
	if small, large := allocs(2), allocs(16); large-small > 3*perChunk {
		t.Errorf("allocations grow from %.0f at Scale 2 to %.0f at Scale 16, want at most %d more per added chunk",
			small, large, perChunk)
	}
}
