package main

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/cluster/wire"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/engine"
	"github.com/bdbench/bdbench/internal/loadgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/stacks/nosql"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads/oltp"
)

// Probes are direct timed loops over one layer's public functions, fed the
// input shape of the workload that runs them. Each lasts at most
// probeBudget and reports the median of its iterations.

// probeBudget returns how long one probe may run: 0.3 s of a 12 s run.
func (h *harness) probeBudget() time.Duration {
	return time.Duration(h.opts.seconds / 40 * float64(time.Second))
}

// timedLoop calls fn until the budget is spent, at least three times, and
// adds the median of the durations it returns to the ledger under name, in
// units of perUnit nanoseconds (1e6 for milliseconds).
func timedLoop(h *harness, name string, perUnit float64, fn func() (time.Duration, error)) error {
	var durs []float64
	deadline := time.Now().Add(h.probeBudget())
	for len(durs) < 3 || time.Now().Before(deadline) {
		d, err := fn()
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		durs = append(durs, float64(d)/perUnit)
	}
	h.ledger.add(name, median(durs))
	return nil
}

// timed makes a whole call the duration timedLoop records.
func timed(f func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := f()
		return time.Since(t0), err
	}
}

// perOpLoop times batches of n calls of fn and adds the median batch's
// time per call, in units of perUnit nanoseconds, under name. With
// allocsName set it also adds the heap allocations per call.
func perOpLoop(h *harness, name, allocsName string, perUnit float64, n int, fn func(i int)) {
	var per, allocs []float64
	var m0, m1 runtime.MemStats
	deadline := time.Now().Add(h.probeBudget())
	for i := 0; len(per) < 3 || time.Now().Before(deadline); {
		if allocsName != "" {
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		for end := i + n; i < end; i++ {
			fn(i)
		}
		per = append(per, float64(time.Since(t0))/perUnit/float64(n))
		if allocsName != "" {
			runtime.ReadMemStats(&m1)
			allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(n))
		}
	}
	h.ledger.add(name, median(per))
	if allocsName != "" {
		h.ledger.add(allocsName, median(allocs))
	}
}

// metricsProbes times the record path with and without raw capture, a
// snapshot of a collector filled like one YCSB execution, and the heap one
// capturing collector with a single operation costs.
func metricsProbes(h *harness) error {
	plain := metrics.NewCollector("probe").Op("read")
	perOpLoop(h, "metrics.record_ns_op", "", 1, 10000, func(i int) { plain.Observe(time.Duration(i)) })

	c := metrics.NewCollector("probe")
	c.EnableSampling(0)
	sampled := c.Op("read")
	perOpLoop(h, "metrics.record_sampled_ns_op", "", 1, 10000, func(i int) { sampled.Observe(time.Duration(i)) })

	if err := timedLoop(h, "metrics.snapshot_ms", 1e6, func() (time.Duration, error) {
		c := metrics.NewCollector("probe")
		c.EnableSampling(0)
		for s := 0; s < 2; s++ {
			shard := c.Shard()
			for _, op := range []string{"read", "update"} {
				ref := shard.Op(op)
				for i := 0; i < 2500; i++ {
					ref.Observe(time.Duration(i))
				}
			}
		}
		t0 := time.Now()
		r := c.Snapshot()
		d := time.Since(t0)
		if len(r.Samples) != 2 {
			return 0, fmt.Errorf("snapshot has %d sample streams, want 2", len(r.Samples))
		}
		return d, nil
	}); err != nil {
		return err
	}

	const collectors = 16
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	keep := make([]*metrics.Collector, collectors)
	for i := range keep {
		keep[i] = metrics.NewCollector("probe")
		keep[i].EnableSampling(0)
		keep[i].Op("read").Observe(time.Microsecond)
	}
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(keep)
	h.ledger.add("metrics.collector_kb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e3/collectors)
	return nil
}

// mapreduceProbes runs word count over generated text with and without the
// combiner, the ablation ROADMAP item 1 asks about.
func mapreduceProbes(h *harness) error {
	g := stats.NewRNG(h.opts.seed)
	dict := textgen.DefaultDictionary()
	input := make([]mapreduce.KV, 5000)
	for i := range input {
		var sb strings.Builder
		for w := 0; w < 10; w++ {
			sb.WriteString(dict[g.IntN(len(dict))])
			sb.WriteByte(' ')
		}
		input[i] = mapreduce.KV{Key: strconv.Itoa(i), Value: sb.String()}
	}
	job := mapreduce.Job{
		Name: "wc",
		Map: func(_, v string, emit func(k, v string)) {
			for _, w := range strings.Fields(v) {
				emit(w, "1")
			}
		},
		Reduce: func(k string, vs []string, emit func(k, v string)) {
			emit(k, strconv.Itoa(len(vs)))
		},
	}
	eng := mapreduce.New(2)
	run := func(j mapreduce.Job) func() error {
		return func() error {
			_, _, err := eng.Run(j, input)
			return err
		}
	}
	if err := timedLoop(h, "mapreduce.wordcount_nocombiner_ms", 1e6, timed(run(job))); err != nil {
		return err
	}
	combined := job
	combined.Combine = job.Reduce
	return timedLoop(h, "mapreduce.wordcount_combiner_ms", 1e6, timed(run(combined)))
}

// ycsbRecords is how many records one YCSB execution loads at scale 1.
const ycsbRecords = 10000

// loadedStore returns a store loaded the way a YCSB execution loads it.
func loadedStore(h *harness) (*nosql.Store, *stats.RNG) {
	store := nosql.Open(4, h.opts.seed)
	g := stats.NewRNG(h.opts.seed)
	oltp.WorkloadA.Load(store, g, ycsbRecords)
	return store, g
}

func ycsbKey(id int) string { return fmt.Sprintf("user%012d", id) }

// nosqlPointProbes times the store's point operations on a YCSB-shaped
// store. Errors cannot occur: every key read was loaded.
func nosqlPointProbes(h *harness) error {
	store, g := loadedStore(h)
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = ycsbKey(g.IntN(ycsbRecords))
	}
	field := g.RandomWord(100, 100)
	var failed error
	note := func(err error) {
		if err != nil {
			failed = err
		}
	}
	perOpLoop(h, "nosql.read_ns_op", "nosql.read_allocs_op", 1, 2000, func(i int) {
		_, err := store.Read(keys[i%len(keys)], nil)
		note(err)
	})
	perOpLoop(h, "nosql.update_ns_op", "", 1, 2000, func(i int) {
		note(store.Update(keys[i%len(keys)], nosql.Record{"field0": field}))
	})
	perOpLoop(h, "nosql.rmw_ns_op", "", 1, 2000, func(i int) {
		note(store.ReadModifyWrite(keys[i%len(keys)], func(rec nosql.Record) nosql.Record {
			rec["field0"] = field
			return rec
		}))
	})
	rec := nosql.Record{}
	for f := 0; f < 10; f++ {
		rec["field"+strconv.Itoa(f)] = field
	}
	perOpLoop(h, "nosql.insert_ns_op", "", 1, 2000, func(i int) {
		store.Insert(ycsbKey(ycsbRecords+i), rec)
	})
	return failed
}

// nosqlScanProbes times Store.Scan with YCSB-E's scan lengths.
func nosqlScanProbes(h *harness) error {
	store, g := loadedStore(h)
	type scan struct {
		start string
		limit int
	}
	scans := make([]scan, 256)
	for i := range scans {
		scans[i] = scan{ycsbKey(g.IntN(ycsbRecords)), 1 + g.IntN(100)}
	}
	perOpLoop(h, "nosql.scan_us_op", "nosql.scan_allocs_op", 1e3, 100, func(i int) {
		s := scans[i%len(scans)]
		store.Scan(s.start, s.limit)
	})
	return nil
}

// wireProbes frames and unframes one task result of the latest repetition,
// samples included, as an agent and the coordinator do for every task.
func wireProbes(h *harness, run *scenarioRun) error {
	r := run.out.Results[0]
	body := wire.FromTaskResult(0, engine.TaskResult{
		Workload: r.Workload,
		Category: r.Category,
		Median:   r.Result,
		Best:     r.Result,
		Reps:     []engine.Rep{{Result: r.Result}},
	})
	var frame []byte
	if err := timedLoop(h, "wire.encode_ms", 1e6, timed(func() (err error) {
		frame, err = wire.EncodeFrame(wire.TypeResult, body)
		return err
	})); err != nil {
		return err
	}
	return timedLoop(h, "wire.decode_ms", 1e6, timed(func() error {
		f, _, err := wire.DecodeFrame(frame)
		if err != nil {
			return err
		}
		var back wire.Result
		return f.Decode(&back)
	}))
}

// scheduleProbe times materializing the arrival schedule the workload's
// window uses, and sizes it.
func scheduleProbe(h *harness, proc loadgen.Process, rate float64, window time.Duration) error {
	var n int
	if err := timedLoop(h, "loadgen.schedule_ms", 1e6, timed(func() error {
		n = len(loadgen.Schedule(proc, rate, window, h.opts.seed))
		return nil
	})); err != nil {
		return err
	}
	h.ledger.add("loadgen.schedule_mb", float64(n)*8/1e6)
	return nil
}

// dispatchProbe drives loadgen.Run directly — no engine, no collector —
// with a no-op operation offered far above what the dispatcher can start,
// and reports the time per dispatched operation.
func dispatchProbe(ctx context.Context, h *harness) error {
	opts := loadgen.Options{Rate: 2e6, Duration: h.probeBudget() / 3, Seed: h.opts.seed}
	st, err := loadgen.Run(ctx, opts, func(context.Context) error { return nil })
	if err != nil {
		return err
	}
	if st.Dispatched == 0 {
		return fmt.Errorf("dispatch probe dispatched nothing")
	}
	h.ledger.add("loadgen.dispatch_ns_op", float64(st.Elapsed)/float64(st.Dispatched))
	return nil
}
