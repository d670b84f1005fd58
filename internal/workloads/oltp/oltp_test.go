package oltp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/nosql"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

func runCore(t *testing.T, w CoreWorkload) metrics.Result {
	t.Helper()
	c := metrics.NewCollector(w.Name())
	t0 := c.Now()
	if err := w.Run(context.Background(), workloads.Params{Seed: 11, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	c.SetElapsed(c.Now().Sub(t0))
	return c.Snapshot()
}

func TestAllSixWorkloadsRunClean(t *testing.T) {
	for _, w := range []CoreWorkload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF} {
		w := w
		t.Run(w.Label, func(t *testing.T) {
			t.Parallel()
			r := runCore(t, w)
			if r.Counters["errors"] != 0 {
				t.Fatalf("%d errors", r.Counters["errors"])
			}
		})
	}
}

func TestWorkloadAMix(t *testing.T) {
	r := runCore(t, WorkloadA)
	var reads, updates uint64
	for _, op := range r.Ops {
		switch op.Op {
		case "read":
			reads = op.Count
		case "update":
			updates = op.Count
		}
	}
	total := float64(reads + updates)
	if total == 0 {
		t.Fatal("no ops recorded")
	}
	frac := float64(reads) / total
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("read fraction %.3f, want ~0.50", frac)
	}
}

func TestWorkloadCReadOnly(t *testing.T) {
	r := runCore(t, WorkloadC)
	for _, op := range r.Ops {
		// "kv_read" is the instrumented store's echo of the same reads.
		if op.Op != "read" && op.Op != "load" && op.Op != "kv_read" {
			t.Fatalf("read-only workload performed %q", op.Op)
		}
	}
}

func TestWorkloadEScansAndInserts(t *testing.T) {
	r := runCore(t, WorkloadE)
	ops := map[string]uint64{}
	for _, op := range r.Ops {
		ops[op.Op] = op.Count
	}
	if ops["scan"] == 0 || ops["insert"] == 0 {
		t.Fatalf("expected scans and inserts: %v", ops)
	}
	if ops["scan"] < ops["insert"]*10 {
		t.Fatalf("scan/insert ratio off: %v", ops)
	}
}

func TestWorkloadDLatestDistribution(t *testing.T) {
	// Just verifying it runs without error (latest distribution tracks
	// concurrent inserts atomically).
	runCore(t, WorkloadD)
}

func TestLoadPopulatesStore(t *testing.T) {
	store := nosql.Open(4, 1)
	WorkloadA.Load(store, stats.NewRNG(2), 500)
	if store.Size() != 500 {
		t.Fatalf("size %d", store.Size())
	}
	rec, err := store.Read("user000000000000", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fieldNames {
		if v := rec.Get(name); len(v) != 100 {
			t.Fatalf("%s: field len %d, want 100", name, len(v))
		}
	}
	if v := rec.Get("field10"); v != "" {
		t.Fatalf("an eleventh field: %q", v)
	}
}

// TestLoadPinned: what Load puts in the store — every key, field name and
// value, in scan order — is what it was when each value was a RandomWord of
// its own under a Sprintf name, at any partition count.
func TestLoadPinned(t *testing.T) {
	for seed, want := range map[uint64]string{
		7:    "1f47ec1bbc150c25ac957915aa42149fa897a435b977894563dd9493db64782a",
		2014: "c2ad1763179afd26f1ff1593f87c32b5d213dff6b836179b3576f8095df57ba7",
	} {
		for _, parts := range []int{1, 4} {
			store := nosql.Open(parts, seed)
			WorkloadA.Load(store, stats.NewRNG(seed), 500)
			kvs := store.Scan("", 500)
			if len(kvs) != 500 {
				t.Fatalf("seed %d, %d partitions: %d records", seed, parts, len(kvs))
			}
			h := sha256.New()
			for _, kv := range kvs {
				fmt.Fprintf(h, "%s\x00", kv.Key)
				for f := 0; f < 10; f++ {
					name := fmt.Sprintf("field%d", f)
					fmt.Fprintf(h, "%s\x00%s\x00", name, kv.Rec.Get(name))
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want {
				t.Errorf("seed %d, %d partitions: digest %s, want %s", seed, parts, got, want)
			}
		}
	}
}

// TestKeyIsSprintf: the key writer against the format it replaced.
func TestKeyIsSprintf(t *testing.T) {
	for _, id := range []int64{0, 7, 10, 9999, 10000, 123456789012, 999999999999} {
		k := key(id)
		if got, want := string(k[:]), fmt.Sprintf("user%012d", id); got != want {
			t.Errorf("key(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestClientsRunEveryOperation: the clients' operations sum to the
// workload's operation count at any client count, including those that do
// not divide it.
func TestClientsRunEveryOperation(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7} {
		for _, w := range []CoreWorkload{WorkloadA, WorkloadC} {
			c := metrics.NewCollector(w.Name())
			if err := w.Run(context.Background(), workloads.Params{Seed: 11, Scale: 1, Workers: workers}, c); err != nil {
				t.Fatal(err)
			}
			r := c.Snapshot()
			var ops uint64
			for _, op := range r.Ops {
				if !op.Substrate && op.Op != "load" {
					ops += op.Count
				}
			}
			if ops != 10000 || r.Counters["records"] != 10000 {
				t.Errorf("%s at %d workers: %d operations ran, records = %d, want 10000 both",
					w.Name(), workers, ops, r.Counters["records"])
			}
		}
	}
}

// TestLoadAllocations: a load allocates per chunk, not per record — its keys
// and values come from one arena each per 1 024 records, and the store cuts
// rows, list nodes and towers from slabs — so a YCSB load of 10 000 records,
// store and all, costs at most one allocation in twenty records.
func TestLoadAllocations(t *testing.T) {
	const records = 10000
	// A store of its own each run: loading over loaded records adds no node.
	allocs := testing.AllocsPerRun(3, func() { WorkloadA.Load(nosql.Open(4, 1), stats.NewRNG(2), records) })
	if perRecord := allocs / records; perRecord > 0.05 && !raceflag.Enabled {
		t.Errorf("Load: %.3f allocations a record, want at most 0.05", perRecord)
	}
}

// servingClient returns the first client Run starts for w at seed, choosing
// among run's loaded records and recording into a shard of c.
func servingClient(w CoreWorkload, run *coreRun, seed uint64, c *metrics.Collector) *client {
	cl := &client{
		g:       stats.NewRNG(seed).Split("client", 0),
		chooser: w.chooser(&run.insertCursor, run.insertCursor),
		rec:     make(nosql.Record, fieldCount),
	}
	shard := c.Shard()
	for op, name := range opNames {
		cl.refs[op] = shard.Op(name)
	}
	return cl
}

// TestReadLoopAllocatesNothing: a YCSB-C client — draw an id, write its key,
// read it, record the latency — allocates nothing per operation. The
// contract is amortised: the loop records real latencies, so a rare slow
// read reaches a histogram range for the first time and installs that
// range's page (up to ten in a thousand reads do). The allocations over a
// run of 8n reads minus those over an earlier run of n must stay within
// the pages the loop's cells can install at all: 38 each, for
// the client's read cell and the store's four kv_read cells. An allocation
// on every k-th read adds 7n/k.
func TestReadLoopAllocatesNothing(t *testing.T) {
	const n, cells, pagesPerCell = 2000, 1 + 4, 38
	store := nosql.Open(4, 1)
	WorkloadC.Load(store, stats.NewRNG(2), 1000)
	c := metrics.NewCollector("ycsb-C")
	store.Instrument(c)
	run := &coreRun{insertCursor: 1000}
	cl := servingClient(WorkloadC, run, 3, c)
	read := func() { WorkloadC.doOne(store, run, cl) }
	first := allocsPerOp(n, read) * n
	then := allocsPerOp(8*n, read) * 8 * n
	if grown := then - first; grown > cells*pagesPerCell && !raceflag.Enabled {
		t.Errorf("%.0f allocations over %d YCSB-C reads, %.0f over the %d before them: %.0f more, want at most the %d pages the cells hold",
			then, 8*n, first, n, grown, cells*pagesPerCell)
	}
	if run.errCount != 0 {
		t.Fatalf("%d reads failed", run.errCount)
	}
}

// allocsPerOp is the average allocation count of op over n calls, after n
// calls unmeasured; unlike testing.AllocsPerRun's average it keeps the
// fraction.
func allocsPerOp(n int, op func()) float64 {
	return testing.AllocsPerRun(1, func() {
		for range n {
			op()
		}
	}) / float64(n)
}

// TestWriteLoopsAllocatePerPage: a client's updates, inserts and
// read-modify-writes draw their values and keys onto its arena, and the
// store cuts the rows from its slabs, so ycsb-A, -D and -F allocate per page,
// not per write: at most one allocation in twenty operations.
func TestWriteLoopsAllocatePerPage(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts not asserted under -race")
	}
	for _, w := range []CoreWorkload{WorkloadA, WorkloadD, WorkloadF} {
		store := nosql.Open(4, 1)
		w.Load(store, stats.NewRNG(2), 1000)
		c := metrics.NewCollector(w.Name())
		store.Instrument(c)
		run := &coreRun{insertCursor: 1000}
		cl := servingClient(w, run, 3, c)
		allocs := allocsPerOp(2000, func() { w.doOne(store, run, cl) })
		if allocs > 0.05 {
			t.Errorf("a %s operation allocates %.3f times, want at most 0.05", w.Name(), allocs)
		}
		if run.errCount != 0 {
			t.Fatalf("%s: %d operations failed", w.Name(), run.errCount)
		}
	}
}

// TestServePinned: what one client's serving phase leaves in the store —
// every key, field name and value, in scan order, after 2 000 operations of
// ycsb-A, -D or -F over 500 loaded records — is what it was when each update
// and read-modify-write drew a RandomWord of its own and each insert a
// builder and a key of its own, at any partition count. An update and a
// read-modify-write of field0 make the same draws, so ycsb-A and -F leave the
// same store.
func TestServePinned(t *testing.T) {
	for _, tc := range []struct {
		w    CoreWorkload
		seed uint64
		want string
	}{
		{WorkloadA, 7, "9a8a55d3c15550178c383a309c5124193900d65aaa006b712e9357a692fc1051"},
		{WorkloadA, 2014, "1f380008da896b01c3c3abc700812e7cbe44e980b623a625a119abfc90686a77"},
		{WorkloadD, 7, "37a7897b42339740fecbdef75a120971b3d1214056e4487767ff4b12a0861b1a"},
		{WorkloadD, 2014, "eddf1d0ce9d0979946ff28c2ef336fb49fadcfccd6dda3a02f808fc612e3f16d"},
		{WorkloadF, 7, "9a8a55d3c15550178c383a309c5124193900d65aaa006b712e9357a692fc1051"},
		{WorkloadF, 2014, "1f380008da896b01c3c3abc700812e7cbe44e980b623a625a119abfc90686a77"},
	} {
		for _, parts := range []int{1, 4} {
			store := nosql.Open(parts, tc.seed)
			tc.w.Load(store, stats.NewRNG(tc.seed), 500)
			run := &coreRun{insertCursor: 500}
			cl := servingClient(tc.w, run, tc.seed, metrics.NewCollector(tc.w.Name()))
			for op := 0; op < 2000; op++ {
				tc.w.doOne(store, run, cl)
			}
			if run.errCount != 0 {
				t.Fatalf("%s, seed %d: %d operations failed", tc.w.Name(), tc.seed, run.errCount)
			}
			h := sha256.New()
			for _, kv := range store.Scan("", store.Size()) {
				fmt.Fprintf(h, "%s\x00", kv.Key)
				for _, name := range fieldNames {
					fmt.Fprintf(h, "%s\x00%s\x00", name, kv.Rec.Get(name))
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != tc.want {
				t.Errorf("%s, seed %d, %d partitions: %d records, digest %s, want %s",
					tc.w.Name(), tc.seed, parts, store.Size(), got, tc.want)
			}
		}
	}
}

func TestMetadata(t *testing.T) {
	w := WorkloadA
	if w.Name() != "ycsb-A" || w.Category() != workloads.Online || w.Domain() != "cloud OLTP" {
		t.Fatal("metadata wrong")
	}
	if w.StackTypes()[0] != stacks.TypeNoSQL {
		t.Fatal("stack type wrong")
	}
}

func TestThroughputRecorded(t *testing.T) {
	r := runCore(t, WorkloadB)
	if r.Throughput <= 0 {
		t.Fatal("no throughput measured")
	}
	// Latency percentiles must be monotone for the dominant op.
	for _, op := range r.Ops {
		if op.P50 > op.P99 {
			t.Fatalf("%s percentiles inverted", op.Op)
		}
	}
}

func TestLinkBenchOpsDirect(t *testing.T) {
	c := metrics.NewCollector("linkbench")
	if err := LinkBenchOps.Run(context.Background(), workloads.Params{Seed: 3, Scale: 1, Workers: 2}, c); err != nil {
		t.Fatal(err)
	}
	c.SetElapsed(1)
	r := c.Snapshot()
	wantOps := map[string]bool{"select": false, "assoc_range": false, "count": false, "update": false, "insert": false}
	for _, op := range r.Ops {
		if _, ok := wantOps[op.Op]; ok {
			wantOps[op.Op] = true
		}
	}
	for op, seen := range wantOps {
		if !seen {
			t.Fatalf("linkbench never executed %q", op)
		}
	}
}
