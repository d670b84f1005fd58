package streamwl

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks/streaming"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestWindowedCount(t *testing.T) {
	c := metrics.NewCollector("wc")
	if err := WindowedCount.Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 2}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["windows_emitted"] == 0 {
		t.Fatal("no windows emitted")
	}
	if c.Snapshot().Counters["sustainable_x1000"] == 0 {
		t.Fatal("no sustainability ratio recorded")
	}
}

func TestRollingAggregate(t *testing.T) {
	c := metrics.NewCollector("ra")
	if err := RollingAggregate.Run(context.Background(), workloads.Params{Seed: 2, Scale: 1, Workers: 2}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["emissions"] == 0 {
		t.Fatal("no emissions")
	}
}

func TestMetadata(t *testing.T) {
	for _, w := range []workloads.Workload{WindowedCount, RollingAggregate} {
		if w.Category() != workloads.Realtime || w.Domain() != "streaming" {
			t.Fatalf("%T metadata wrong", w)
		}
	}
}

// TestPipelineOutputsPinned holds what windowed-count and rolling-aggregate
// emit (seed 2014, Scale 1, two datagen workers) to digests. Windows emit
// their keys in map order, so the messages are sorted before hashing.
func TestPipelineOutputsPinned(t *testing.T) {
	p := workloads.Params{Seed: 2014, Scale: 1, DatagenWorkers: 2}
	digest := func(out []streaming.Msg) uint64 {
		out = slices.Clone(out)
		slices.SortFunc(out, func(a, b streaming.Msg) int {
			return cmp.Or(cmp.Compare(a.Time, b.Time), cmp.Compare(a.Key, b.Key))
		})
		h := fnv.New64a()
		for _, m := range out {
			fmt.Fprintf(h, "%d\x00%s\x00%x\n", m.Time, m.Key, math.Float64bits(m.Value))
		}
		return h.Sum64()
	}
	counts, err := countWindows(context.Background(), p, metrics.NewCollector("wc"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(counts), uint64(0xd3443967238231a0); got != want {
		t.Errorf("windowed-count output moved: %d messages, digest %#x, want %#x", len(counts), got, want)
	}
	sums, err := rollWindows(context.Background(), p, metrics.NewCollector("ra"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := digest(sums), uint64(0xfafe3d61c790034e); got != want {
		t.Errorf("rolling-aggregate output moved: %d messages, digest %#x, want %#x", len(sums), got, want)
	}
}
