package streamwl

import (
	"context"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestWindowedCount(t *testing.T) {
	c := metrics.NewCollector("wc")
	if err := (WindowedCount{}).Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 2}, c); err != nil {
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
	if err := (RollingAggregate{}).Run(context.Background(), workloads.Params{Seed: 2, Scale: 1, Workers: 2}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["emissions"] == 0 {
		t.Fatal("no emissions")
	}
}

func TestMetadata(t *testing.T) {
	for _, w := range []workloads.Workload{WindowedCount{}, RollingAggregate{}} {
		if w.Category() != workloads.Realtime || w.Domain() != "streaming" {
			t.Fatalf("%T metadata wrong", w)
		}
	}
}
