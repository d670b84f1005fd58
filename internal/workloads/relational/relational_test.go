package relational

import (
	"context"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestPavloDBMS(t *testing.T) {
	c := metrics.NewCollector("pavlo-dbms")
	if err := (LoadSelectAggregateJoin{}).Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 2}, c); err != nil {
		t.Fatal(err)
	}
	c.SetElapsed(1)
	r := c.Snapshot()
	seen := map[string]bool{}
	for _, op := range r.Ops {
		seen[op.Op] = true
	}
	for _, op := range []string{"load", "select", "aggregate", "join"} {
		if !seen[op] {
			t.Fatalf("missing op %q in %v", op, r.Ops)
		}
	}
}

func TestPavloMapReduce(t *testing.T) {
	c := metrics.NewCollector("pavlo-mr")
	if err := (MapReduceEquivalents{}).Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
}

func TestDBMSAndMapReduceAgreeOnSelection(t *testing.T) {
	// Both implementations verify against the same ground-truth count
	// computed from the raw table, so passing both with the same seed
	// means they agree with each other.
	seed := uint64(77)
	c1 := metrics.NewCollector("a")
	if err := (LoadSelectAggregateJoin{}).Run(context.Background(), workloads.Params{Seed: seed, Scale: 1, Workers: 2}, c1); err != nil {
		t.Fatal(err)
	}
	c2 := metrics.NewCollector("b")
	if err := (MapReduceEquivalents{}).Run(context.Background(), workloads.Params{Seed: seed, Scale: 1, Workers: 2}, c2); err != nil {
		t.Fatal(err)
	}
}

func TestURLCount(t *testing.T) {
	c := metrics.NewCollector("url-count")
	if err := (URLCount{}).Run(context.Background(), workloads.Params{Seed: 2, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["records"] == 0 {
		t.Fatal("no log records processed")
	}
}

func TestMetadata(t *testing.T) {
	if (LoadSelectAggregateJoin{}).Domain() != "relational queries" {
		t.Fatal("domain wrong")
	}
	if (LoadSelectAggregateJoin{}).Category() != workloads.Realtime {
		t.Fatal("interactive queries should be real-time analytics")
	}
	if len((URLCount{}).StackTypes()) != 2 {
		t.Fatal("url-count runs on both stacks")
	}
}
