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
	c.Start()
	if err := w.Run(context.Background(), workloads.Params{Seed: 11, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatalf("%s: %v", w.Name(), err)
	}
	c.Stop()
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
			c.Start()
			if err := w.Run(context.Background(), workloads.Params{Seed: 11, Scale: 1, Workers: workers}, c); err != nil {
				t.Fatal(err)
			}
			c.Stop()
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

// TestLoadAllocations: a loaded record costs its key, its values, its row and
// its list node — and a tower for the one node in sixteen above level 2.
func TestLoadAllocations(t *testing.T) {
	const records = 500
	// A store of its own each run: loading over loaded records adds no node.
	allocs := testing.AllocsPerRun(3, func() { WorkloadA.Load(nosql.Open(4, 1), stats.NewRNG(2), records) })
	if perRecord := allocs / records; perRecord > 4.2 && !raceflag.Enabled {
		t.Errorf("Load: %.2f allocations a record, want at most 4.2", perRecord)
	}
}

// TestReadLoopAllocatesNothing: a YCSB-C client — draw an id, write its key,
// read it, record the latency — allocates nothing per operation.
func TestReadLoopAllocatesNothing(t *testing.T) {
	store := nosql.Open(4, 1)
	WorkloadC.Load(store, stats.NewRNG(2), 1000)
	c := metrics.NewCollector("ycsb-C")
	store.Instrument(c)
	run := &coreRun{insertCursor: 1000}
	cl := client{g: stats.NewRNG(3), chooser: WorkloadC.chooser(&run.insertCursor, 1000)}
	for op, name := range opNames {
		cl.refs[op] = c.Shard().Op(name)
	}
	allocs := testing.AllocsPerRun(2000, func() { WorkloadC.doOne(store, run, &cl) })
	if allocs != 0 && !raceflag.Enabled {
		t.Errorf("a YCSB-C operation allocates %.2f times, want 0", allocs)
	}
	if run.errCount != 0 {
		t.Fatalf("%d reads failed", run.errCount)
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
