// Benchmarks regenerating every table and figure of "On Big Data
// Benchmarking", plus the quantitative experiments E7-E13 (see `bdbench
// experiments`) and microbenchmarks of the substrates. Run with:
//
//	go test -bench=. -benchmem
package bdbench_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	bdbench "github.com/bdbench/bdbench"
	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/streamgen"
	"github.com/bdbench/bdbench/internal/datagen/tablegen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/datagen/veracity"
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stacks/dbms"
	"github.com/bdbench/bdbench/internal/stacks/graphengine"
	"github.com/bdbench/bdbench/internal/stacks/nosql"
	"github.com/bdbench/bdbench/internal/stacks/streaming"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/suites"
	"github.com/bdbench/bdbench/internal/testgen"
	"github.com/bdbench/bdbench/internal/workloads"
	"github.com/bdbench/bdbench/internal/workloads/oltp"
	"github.com/bdbench/bdbench/internal/workloads/relational"
	"github.com/bdbench/bdbench/internal/workloads/social"
	"github.com/bdbench/bdbench/internal/workloads/streamwl"
)

// ---- E5: Table 1 ----

// BenchmarkTable1DataGeneration derives the full Table 1 (volume, velocity,
// variety, veracity probes over all eleven suites).
func BenchmarkTable1DataGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := suites.DeriveTable1(900)
		if err != nil {
			b.Fatal(err)
		}
		if diffs := suites.CompareToPaper(rows); len(diffs) != 0 {
			b.Fatalf("disagrees with paper: %v", diffs)
		}
	}
}

// ---- E6: Table 2 ----

// suiteTasks flattens a built-in suite's workload inventory into engine
// tasks, one per runner, in row order.
func suiteTasks(name string, p workloads.Params) []engine.Task {
	suite, _ := bdbench.DefaultRegistry().Suite(name)
	var tasks []engine.Task
	for _, row := range suite.Rows {
		for _, w := range row.Runners {
			tasks = append(tasks, engine.Task{Workload: w, Category: row.Category, Params: p})
		}
	}
	return tasks
}

// BenchmarkTable2Workloads executes one representative suite inventory per
// iteration (GridMix: the smallest full row of Table 2).
func BenchmarkTable2Workloads(b *testing.B) {
	tasks := suiteTasks("GridMix", workloads.Params{Seed: 1, Scale: 1, Workers: 4})
	for i := 0; i < b.N; i++ {
		results := engine.Run(context.Background(), tasks, engine.Config{})
		for _, r := range results {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
	}
}

// BenchmarkSuiteEngineParallelism compares sequential execution (one
// engine worker) against the concurrent engine at full parallelism on one
// suite inventory — the speedup the execution layer buys. Results are
// seed-identical in both modes.
func BenchmarkSuiteEngineParallelism(b *testing.B) {
	tasks := suiteTasks("CloudSuite", workloads.Params{Seed: 1, Scale: 1, Workers: 2})
	for _, mode := range []struct {
		name    string
		workers int
	}{
		{"sequential", 1},
		{fmt.Sprintf("engine-%dworkers", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results := engine.Run(context.Background(), tasks, engine.Config{Workers: mode.workers})
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(len(tasks)*b.N)/b.Elapsed().Seconds(), "workloads/s")
		})
	}
}

// ---- E1: Figure 1 ----

// BenchmarkFigure1Process runs the five-step benchmarking process.
func BenchmarkFigure1Process(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := bdbench.SuiteScenario("GridMix")
		s.Scale, s.Workers, s.Seed = 1, 4, 1
		out, err := bdbench.Run(context.Background(), s, bdbench.WithDataProbes())
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Steps) != 5 {
			b.Fatal("process did not execute five steps")
		}
	}
}

// ---- E2: Figure 2 ----

// BenchmarkFigure2Architecture renders the layered architecture; it mostly
// documents that the figure is an executable artifact.
func BenchmarkFigure2Architecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(bdbench.FormatArchitecture(bdbench.Architecture())) == 0 {
			b.Fatal("empty architecture")
		}
	}
}

// ---- E3: Figure 3 ----

// BenchmarkFigure3DataGeneration runs the four-step data generation process
// for the text data type.
func BenchmarkFigure3DataGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := bdbench.TextDataGenProcess(1, 300, 4)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Steps) != 4 {
			b.Fatal("process did not execute four steps")
		}
	}
}

// ---- E4: Figure 4 ----

// BenchmarkFigure4TestGeneration runs the five-step test generation process
// and the cross-stack portability check.
func BenchmarkFigure4TestGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, _, _, err := testgen.Generate(
			testgen.DataSpec{Source: "words", Size: 1000, Seed: 4},
			[]testgen.Step{{Op: "select", Arg: "data"}, {Op: "count"}},
			testgen.MultiPattern, "", 0,
		)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := testgen.VerifyPortability(context.Background(), p, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- E7: velocity via parallel generation ----

// BenchmarkVelocityParallelScaling measures table generation rate as the
// worker count doubles (the paper's parallel-deployment velocity knob).
func BenchmarkVelocityParallelScaling(b *testing.B) {
	spec := tablegen.ReferenceSpec(1)
	spec.ChunkSize = 1024
	maxW := runtime.GOMAXPROCS(0)
	for w := 1; w <= maxW; w *= 2 {
		b.Run(fmt.Sprintf("workers-%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tab := spec.GenerateParallel(50_000, w)
				if tab.NumRows() != 50_000 {
					b.Fatal("wrong row count")
				}
			}
			b.ReportMetric(float64(50_000*b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// ---- E8: velocity via algorithm efficiency (§5.1) ----

// BenchmarkVelocityAlgorithmKnob compares the BA generator's memory-heavy
// (fast) and memory-light (slow) modes.
func BenchmarkVelocityAlgorithmKnob(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    graphgen.MemoryMode
	}{{"memory-heavy", graphgen.MemoryHeavy}, {"memory-light", graphgen.MemoryLight}} {
		b.Run(mode.name, func(b *testing.B) {
			gen := graphgen.BarabasiAlbert{M: 4, Mode: mode.m}
			var edges int
			for i := 0; i < b.N; i++ {
				g := gen.Generate(stats.NewRNG(2), 12)
				edges = g.NumEdges()
			}
			b.ReportMetric(float64(edges*b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// ---- E9: veracity metrics ----

// BenchmarkVeracityMetrics measures the cost of the §5.1 veracity
// comparison for each data type.
func BenchmarkVeracityMetrics(b *testing.B) {
	rawText := textgen.ReferenceCorpus(1, 150, 60)
	synText := textgen.ReferenceCorpus(2, 150, 60)
	rawTab := tablegen.ReferenceTable(3, 4000)
	synTab := tablegen.ReferenceTable(4, 4000)
	rawG := graphgen.DefaultRMAT.Generate(stats.NewRNG(5), 11)
	synG := graphgen.DefaultRMAT.Generate(stats.NewRNG(6), 11)
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := veracity.Text(rawText, synText); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := veracity.Table(rawTab, synTab); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("graph", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := veracity.Graph(rawG, synG); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E10: abstract test portability ----

// BenchmarkAbstractTestPortability runs the same prescription on each stack
// type separately so their costs are directly comparable.
func BenchmarkAbstractTestPortability(b *testing.B) {
	for _, stack := range testgen.Stacks() {
		w, err := testgen.Bind(testgen.Config{Prescription: "select-count", Stack: stack})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(stack, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := metrics.NewCollector(stack)
				if err := w.Run(context.Background(), workloads.Params{Workers: 4}, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E11: YCSB ----

// BenchmarkYCSBWorkloads runs each core workload A-F.
func BenchmarkYCSBWorkloads(b *testing.B) {
	ycsb, _ := bdbench.DefaultRegistry().Suite("YCSB")
	for _, w := range ycsb.Workloads() {
		b.Run(w.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := metrics.NewCollector(w.Name())
				if err := w.Run(context.Background(), workloads.Params{Seed: 6, Scale: 1, Workers: 4}, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E12: Pavlo comparison ----

// BenchmarkPavloComparison runs the select/aggregate/join task set on the
// DBMS and on MapReduce; the DBMS should win at this (indexed, small) scale.
func BenchmarkPavloComparison(b *testing.B) {
	b.Run("dbms", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := metrics.NewCollector("dbms")
			if err := relational.LoadSelectAggregateJoin.Run(context.Background(), workloads.Params{Seed: 7, Scale: 1, Workers: 4}, c); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mapreduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := metrics.NewCollector("mr")
			if err := relational.MapReduceEquivalents.Run(context.Background(), workloads.Params{Seed: 7, Scale: 1, Workers: 4}, c); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- E13: workload categories ----

// BenchmarkWorkloadCategories runs one representative workload per §4.2
// category.
func BenchmarkWorkloadCategories(b *testing.B) {
	reps := []struct {
		name string
		w    workloads.Workload
	}{
		{"online-ycsbC", oltp.WorkloadC},
		{"offline-kmeans", social.KMeans},
		{"realtime-windowed", streamwl.WindowedCount},
	}
	for _, rep := range reps {
		b.Run(rep.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := metrics.NewCollector(rep.name)
				if err := rep.w.Run(context.Background(), workloads.Params{Seed: 8, Scale: 1, Workers: 4}, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- E14: metrics pipeline scalability ----

// mutexCollector replicates the pre-shard Collector design — every
// observation serializes through one mutex — as the baseline the sharded
// pipeline is measured against.
type mutexCollector struct {
	mu       sync.Mutex
	lat      map[string]*stats.AtomicLatencyHistogram
	counters map[string]int64
}

func newMutexCollector() *mutexCollector {
	return &mutexCollector{lat: map[string]*stats.AtomicLatencyHistogram{}, counters: map[string]int64{}}
}

func (c *mutexCollector) Observe(op string, d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.lat[op]
	if !ok {
		h = &stats.AtomicLatencyHistogram{}
		c.lat[op] = h
	}
	h.Observe(d)
}

func (c *mutexCollector) Add(counter string, delta int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.counters[counter] += delta
}

// byLabel mints recorders that share the mutex baseline and go through its
// string keys.
func byLabel(c *mutexCollector) func() func(time.Duration) {
	record := func(d time.Duration) {
		c.Observe("op", d)
		c.Add("records", 1)
	}
	return func() func(time.Duration) { return record }
}

// byMint mints recorders that share c's default shard and mint both handles
// on every call: the per-call label lookup, without the mutex.
func byMint(c *metrics.Collector) func() func(time.Duration) {
	record := func(d time.Duration) {
		c.Op("op").Observe(d)
		c.CounterRef("records").Add(1)
	}
	return func() func(time.Duration) { return record }
}

// byHandles mints recorders that each hold a private shard of c and record
// through handles bound once — the one way to record below the collector.
func byHandles(c *metrics.Collector) func() func(time.Duration) {
	return func() func(time.Duration) {
		s := c.Shard()
		op, records := s.Op("op"), s.CounterRef("records")
		return func(d time.Duration) {
			op.Observe(d)
			records.Add(1)
		}
	}
}

// benchObservers drives `goroutines` concurrent recorders (one minted per
// goroutine) through an observe+count loop and reports the aggregate
// recording rate.
func benchObservers(b *testing.B, goroutines int, mint func() func(time.Duration)) {
	per := b.N/goroutines + 1
	var wg sync.WaitGroup
	// The record path is zero-allocation once a label exists; the allocs/op
	// column shows it (the fixed goroutine-spawn cost amortizes to zero
	// over b.N) and TestRecorderDesignsZeroAlloc holds it.
	b.ReportAllocs()
	b.ResetTimer()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			record := mint()
			for i := 0; i < per; i++ {
				record(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	b.ReportMetric(float64(per*goroutines)/b.Elapsed().Seconds(), "obs/s")
}

// BenchmarkCollectorParallel is the acceptance benchmark for the sharded
// pipeline: 8 goroutines observing concurrently through (a) the old
// single-mutex design, (b) handles minted on every call from the
// collector's shared default shard (a label lookup per call, lock-free but
// contended), and (c) private shards. The
// sharded variant must deliver materially more obs/s than the mutex
// baseline.
func BenchmarkCollectorParallel(b *testing.B) {
	const goroutines = 8
	b.Run("global-mutex", func(b *testing.B) {
		c := newMutexCollector()
		benchObservers(b, goroutines, byLabel(c))
	})
	b.Run("facade-shared-shard", func(b *testing.B) {
		c := metrics.NewCollector("bench")
		benchObservers(b, goroutines, byMint(c))
	})
	b.Run("sharded", func(b *testing.B) {
		c := metrics.NewCollector("bench")
		benchObservers(b, goroutines, byHandles(c))
		if c.Snapshot().Counters["records"] == 0 {
			b.Fatal("shard writes lost")
		}
	})
}

// TestRecorderDesignsZeroAlloc holds the allocs/op column of
// BenchmarkCollectorParallel and BenchmarkCollectorShardScaling at 0 for all
// three designs, through the recorders the benchmarks run: a comparison in
// which one side pays for garbage the other does not says nothing about the
// locking. internal/metrics/alloc_test.go covers the collector's own paths
// in more detail.
func TestRecorderDesignsZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not asserted under -race")
	}
	for name, mint := range map[string]func() func(time.Duration){
		"global-mutex":        byLabel(newMutexCollector()),
		"facade-shared-shard": byMint(metrics.NewCollector("wl")),
		"sharded":             byHandles(metrics.NewCollector("wl")),
	} {
		record := mint()
		record(time.Microsecond) // first use installs the labels
		allocs := testing.AllocsPerRun(1, func() {
			for range 1000 {
				record(time.Microsecond)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.0f allocations over 1 000 records in steady state, want 0", name, allocs)
		}
	}
}

// BenchmarkCollectorShardScaling shows recording throughput scaling with
// the writer count when each writer holds a private shard.
func BenchmarkCollectorShardScaling(b *testing.B) {
	maxW := runtime.GOMAXPROCS(0)
	for w := 1; w <= maxW; w *= 2 {
		b.Run(fmt.Sprintf("writers-%d", w), func(b *testing.B) {
			c := metrics.NewCollector("bench")
			benchObservers(b, w, byHandles(c))
		})
	}
}

// BenchmarkYCSBClientScaling runs workload A end to end as the stack client
// count doubles: the per-operation measurement path is sharded per client
// (plus the store's per-partition shards), so measured op throughput can
// scale with the clients instead of re-serializing on a collector lock.
func BenchmarkYCSBClientScaling(b *testing.B) {
	maxW := runtime.GOMAXPROCS(0)
	for w := 1; w <= maxW; w *= 2 {
		b.Run(fmt.Sprintf("clients-%d", w), func(b *testing.B) {
			var ops uint64
			for i := 0; i < b.N; i++ {
				c := metrics.NewCollector(oltp.WorkloadA.Name())
				if err := oltp.WorkloadA.Run(context.Background(),
					workloads.Params{Seed: 9, Scale: 1, Workers: w}, c); err != nil {
					b.Fatal(err)
				}
				for _, op := range c.Snapshot().Ops {
					if !op.Substrate { // count each logical op once, not its kv_* echo
						ops += op.Count
					}
				}
			}
			b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "ops/s")
		})
	}
}

// ---- Substrate microbenchmarks (ablation-level) ----

// BenchmarkDBMSQueries measures indexed point lookups, aggregation and
// joins on the relational substrate.
func BenchmarkDBMSQueries(b *testing.B) {
	db := dbms.Open()
	if err := db.Load(tablegen.ReferenceTable(1, 20000)); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateIndex("orders", "order_id"); err != nil {
		b.Fatal(err)
	}
	b.Run("point-select-indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q := fmt.Sprintf("SELECT price FROM orders WHERE order_id = %d", i%20000+1)
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("group-by", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := db.Query("SELECT region, sum(price) AS s FROM orders GROUP BY region"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNoSQLOps measures raw store operation latencies.
func BenchmarkNoSQLOps(b *testing.B) {
	store := nosql.Open(8, 1)
	g := stats.NewRNG(2)
	for i := 0; i < 100000; i++ {
		store.Insert(fmt.Sprintf("user%012d", i), nosql.Record{"f": "v"})
	}
	b.Run("read", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := store.Read(fmt.Sprintf("user%012d", g.IntN(100000)), nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("scan-100", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			store.Scan(fmt.Sprintf("user%012d", g.IntN(100000)), 100)
		}
	})
}

// BenchmarkStreamingWindow measures the streaming engine's sustained rate.
func BenchmarkStreamingWindow(b *testing.B) {
	gen := streamgen.Generator{EventsPerSec: 100000, KeySpace: 100}
	events := gen.Generate(stats.NewRNG(3), 50000)
	eng := streaming.New()
	for i := 0; i < b.N; i++ {
		res := eng.Run(events, streaming.TumblingWindow{Size: 100_000_000})
		if res.In != 50000 {
			b.Fatal("lost events")
		}
	}
	b.ReportMetric(float64(50000*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkGraphPageRank measures the BSP engine on an RMAT graph.
func BenchmarkGraphPageRank(b *testing.B) {
	g := graphgen.DefaultRMAT.Generate(stats.NewRNG(4), 12)
	eng := graphengine.New(4)
	for i := 0; i < b.N; i++ {
		if _, err := eng.Run(g, graphengine.PageRank{}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLDATraining measures model fitting, the costly step of the
// Figure 3 pipeline.
func BenchmarkLDATraining(b *testing.B) {
	corpus := textgen.ReferenceCorpus(5, 150, 60)
	for i := 0; i < b.N; i++ {
		lda := textgen.NewLDA()
		if err := lda.Train(corpus, 20, stats.NewRNG(6)); err != nil {
			b.Fatal(err)
		}
	}
}
