package relational

import (
	"context"
	"fmt"
	"hash/fnv"
	"testing"

	"github.com/bdbench/bdbench/internal/data"
	"github.com/bdbench/bdbench/internal/datagen/weblog"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stacks/dbms"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestPavloDBMS(t *testing.T) {
	c := metrics.NewCollector("pavlo-dbms")
	if err := LoadSelectAggregateJoin.Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 2}, c); err != nil {
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
	if err := MapReduceEquivalents.Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
}

func TestDBMSAndMapReduceAgreeOnSelection(t *testing.T) {
	// Both implementations verify against the same ground-truth count
	// computed from the raw table, so passing both with the same seed
	// means they agree with each other.
	seed := uint64(77)
	c1 := metrics.NewCollector("a")
	if err := LoadSelectAggregateJoin.Run(context.Background(), workloads.Params{Seed: seed, Scale: 1, Workers: 2}, c1); err != nil {
		t.Fatal(err)
	}
	c2 := metrics.NewCollector("b")
	if err := MapReduceEquivalents.Run(context.Background(), workloads.Params{Seed: seed, Scale: 1, Workers: 2}, c2); err != nil {
		t.Fatal(err)
	}
}

func TestURLCount(t *testing.T) {
	c := metrics.NewCollector("url-count")
	if err := URLCount.Run(context.Background(), workloads.Params{Seed: 2, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["records"] == 0 {
		t.Fatal("no log records processed")
	}
}

func TestMetadata(t *testing.T) {
	if LoadSelectAggregateJoin.Domain() != "relational queries" {
		t.Fatal("domain wrong")
	}
	if LoadSelectAggregateJoin.Category() != workloads.Realtime {
		t.Fatal("interactive queries should be real-time analytics")
	}
	if len(URLCount.StackTypes()) != 2 {
		t.Fatal("url-count runs on both stacks")
	}
}

// TestEncodersPinned holds the MapReduce inputs the relational workloads
// encode to digests recorded when every key and value was a string of its
// own, and holds each encoder's allocations to its input count: from n to 8n
// records they may grow by a small constant, never by one or more per record.
func TestEncodersPinned(t *testing.T) {
	p := workloads.Params{Seed: 2014, Scale: 1, DatagenWorkers: 2}.WithDefaults()
	c := metrics.NewCollector("encode")
	orders, customers := ordersRows(p, c), customersTable(p, c)
	logs, err := weblog.FromTableParallel(p.Seed+2, orders, 5000, p.DatagenWorkers)
	if err != nil {
		t.Fatal(err)
	}
	head := func(tab *data.Table, n int) *data.Table { return &data.Table{Schema: tab.Schema, Rows: tab.Rows[:n]} }
	for _, tc := range []struct {
		name   string
		n      int // the pinned input has 8n records
		want   uint64
		encode func(n int) []mapreduce.KV
	}{
		{"orders", 250, 0xccded64d9e129ac1, func(n int) []mapreduce.KV { return ordersInput(head(orders, n)) }},
		{"join", 250, 0x9529f828e2f7d961, func(n int) []mapreduce.KV {
			return joinInput(head(orders, n), head(customers, 5*n))
		}},
		{"url", 625, 0x7e74d35275778421, func(n int) []mapreduce.KV { return urlInput(logs[:n]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := fnv.New64a()
			for _, kv := range tc.encode(8 * tc.n) {
				h.Write([]byte(kv.Key))
				h.Write([]byte{0})
				h.Write([]byte(kv.Value))
				h.Write([]byte{'\n'})
			}
			if got := h.Sum64(); got != tc.want {
				t.Fatalf("input moved: digest %#x, want %#x", got, tc.want)
			}
			if raceflag.Enabled {
				return
			}
			const perInput = 4
			// Both calls: truncation hides under one allocation a call; a per-record one adds 7·tc.n between the volumes.
			small := testing.AllocsPerRun(5, func() { tc.encode(tc.n) })
			if large := testing.AllocsPerRun(5, func() { tc.encode(8 * tc.n) }); large-small > perInput {
				t.Errorf("allocations grow from %.0f at %d records to %.0f at %d, want at most %d more",
					small, tc.n, large, 8*tc.n, perInput)
			}
		})
	}
}

// TestURLCountsPinned holds url-count's two answers over batch_mix's logs
// (seed 2014, Scale 3) to the digests they had when every hits row was a
// slice of its own: the DBMS top ten and the MapReduce count of every path.
func TestURLCountsPinned(t *testing.T) {
	p := workloads.Params{Seed: 2014, Scale: 3, DatagenWorkers: 2}.WithDefaults()
	c := metrics.NewCollector("url-count")
	logs, err := weblog.FromTableParallel(p.Seed+2, ordersRows(p, c), 15000, p.DatagenWorkers)
	if err != nil {
		t.Fatal(err)
	}
	db := dbms.Open()
	if err := db.Load(hitsTable(logs)); err != nil {
		t.Fatal(err)
	}
	top, err := db.Query(topPathsQuery)
	if err != nil {
		t.Fatal(err)
	}
	counts, _, err := mapreduce.New(2).Run(urlCountJob, urlInput(logs))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, row := range top.Rows {
		fmt.Fprintln(h, row[0].Str(), row[1].Int())
	}
	if got, want := h.Sum64(), uint64(0xcd5e206fdcf63a99); top.NumRows() != 10 || got != want {
		t.Errorf("DBMS top ten moved: %d rows, digest %#x, want %#x", top.NumRows(), got, want)
	}
	h.Reset()
	for _, kv := range counts {
		fmt.Fprintf(h, "%s\x00%s\n", kv.Key, kv.Value)
	}
	if got, want := h.Sum64(), uint64(0x8f1d42378f218404); got != want {
		t.Errorf("MapReduce counts moved: %d paths, digest %#x, want %#x", len(counts), got, want)
	}
}
