package bdbench_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"sort"
	"testing"

	bdbench "github.com/bdbench/bdbench"
)

var updateOpTable = flag.Bool("update", false, "rewrite testdata/optable.golden.json from a fresh run")

const opTableGoldenPath = "testdata/optable.golden.json"

// opTableRow is one operation label of one workload: which level recorded
// it and how many observations it took. Timings are deliberately absent.
type opTableRow struct {
	Workload  string `json:"workload"`
	Op        string `json:"op"`
	Substrate bool   `json:"substrate"`
	Count     uint64 `json:"count"`
}

type opTable struct {
	Rows     []opTableRow                `json:"rows"`
	Counters map[string]map[string]int64 `json:"counters"`
}

// TestOpTableGolden pins which labels every stack and workload records and
// how often, for one spec that reaches all five stacks: the sorted
// (workload, op, substrate, count) rows plus each workload's counters must
// equal the checked-in table. The golden was generated before the metrics
// write path moved to pre-bound handles, so a diff here means a label or an
// observation was added or lost, never that a timing moved. Zero-count rows
// are filtered: a label that was never observed is not an operation.
func TestOpTableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs nine workloads end to end")
	}
	spec := bdbench.Scenario{Name: "optable", Scale: 1, Workers: 2, Parallel: 1, Seed: 2014}
	for _, w := range []string{"ycsb-A", "ycsb-C", "ycsb-E", "grep", "wordcount",
		"pavlo-dbms", "windowed-count", "pagerank", "linkbench-ops"} {
		spec.Entries = append(spec.Entries, bdbench.Entry{Workload: w})
	}
	out, err := bdbench.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	table := opTable{Counters: map[string]map[string]int64{}}
	for _, r := range out.Results {
		for _, op := range r.Result.Ops {
			if op.Count > 0 {
				table.Rows = append(table.Rows, opTableRow{r.Workload, op.Op, op.Substrate, op.Count})
			}
		}
		counters := map[string]int64{}
		for name, v := range r.Result.Counters {
			// windowed-count derives this one from wall time.
			if name != "sustainable_x1000" {
				counters[name] = v
			}
		}
		table.Counters[r.Workload] = counters
	}
	sort.Slice(table.Rows, func(i, j int) bool {
		a, b := table.Rows[i], table.Rows[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		return a.Op < b.Op
	})
	fresh, err := json.MarshalIndent(table, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fresh = append(fresh, '\n')
	if *updateOpTable {
		if err := os.WriteFile(opTableGoldenPath, fresh, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(opTableGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, want) {
		t.Fatalf("op table diverges from %s; regenerate with -update only if a label change is intended:\n%s", opTableGoldenPath, fresh)
	}
}
