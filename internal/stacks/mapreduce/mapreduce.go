// Package mapreduce is bdbench's Hadoop-substitute: an in-process MapReduce
// engine with input splits, parallel map tasks, combiners, hash or custom
// partitioning, a sort-based shuffle, and parallel reduce tasks. Workloads
// that the paper's surveyed benchmarks run on Hadoop (sort, WordCount,
// TeraSort, PageRank iterations, k-means iterations, ...) run on this engine
// through the same map/reduce contract.
package mapreduce

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stats"
)

// KV is the engine's record type.
type KV struct {
	Key, Value string
}

// Mapper transforms one input record into zero or more intermediate records.
type Mapper func(key, value string, emit func(k, v string))

// Reducer folds all values of one key into zero or more output records.
type Reducer func(key string, values []string, emit func(k, v string))

// Partitioner routes an intermediate key to one of n reduce partitions.
type Partitioner func(key string, n int) int

// HashPartition is the default partitioner.
func HashPartition(key string, n int) int {
	return int(stats.FNV64(key) % uint64(n))
}

// Job describes one MapReduce execution.
type Job struct {
	Name string
	Map  Mapper
	// Reduce may be nil for map-only jobs.
	Reduce Reducer
	// Combine, when non-nil, pre-aggregates map output per partition
	// before the shuffle, cutting shuffle volume (it must be associative
	// and produce the same key).
	Combine Reducer
	// Partition defaults to HashPartition.
	Partition Partitioner
	// NumMappers and NumReducers default to the engine worker count.
	NumMappers  int
	NumReducers int
	// SortOutput, when true, concatenates reduce partitions in partition
	// order with each partition's groups key-sorted (needed by sort
	// workloads with range partitioners).
	SortOutput bool
}

// Stats captures the architecture metrics of one job run.
type Stats struct {
	MapInputRecords   int64
	MapOutputRecords  int64
	CombineOutRecords int64
	ShuffleBytes      int64
	ReduceGroups      int64
	OutputRecords     int64
	MapWall           time.Duration
	ShuffleWall       time.Duration
	ReduceWall        time.Duration
}

// Engine is a simulated cluster with a fixed worker pool.
type Engine struct {
	workers int
	rec     *metrics.Collector
}

// New returns an engine with the given parallelism (clamped to >= 1).
func New(workers int) *Engine {
	if workers < 1 {
		workers = 1
	}
	return &Engine{workers: workers}
}

// Instrument attaches a collector (nil detaches) and returns the engine.
// Each run mints one substrate shard per worker slot and map/reduce tasks
// record their per-task wall times into the shard of the slot they run on,
// so task-level measurement adds no shared-lock contention to the job's hot
// path.
func (e *Engine) Instrument(rec *metrics.Collector) *Engine {
	e.rec = rec
	return e
}

// Name implements stacks.Stack.
func (e *Engine) Name() string { return "bdbench-mapreduce" }

// Type implements stacks.Stack.
func (e *Engine) Type() stacks.Type { return stacks.TypeMapReduce }

// Workers returns the configured parallelism.
func (e *Engine) Workers() int { return e.workers }

var _ stacks.Stack = (*Engine)(nil)

// Run executes the job over the input and returns the output records plus
// run statistics.
func (e *Engine) Run(job Job, input []KV) ([]KV, Stats, error) {
	if job.Map == nil {
		return nil, Stats{}, fmt.Errorf("mapreduce: job %q has no mapper", job.Name)
	}
	numMappers := job.NumMappers
	if numMappers <= 0 {
		numMappers = e.workers
	}
	if numMappers > len(input) && len(input) > 0 {
		numMappers = len(input)
	}
	if numMappers < 1 {
		numMappers = 1
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = e.workers
	}
	partition := job.Partition
	if partition == nil {
		partition = HashPartition
	}

	var st Stats
	st.MapInputRecords = int64(len(input))

	// One substrate shard per worker slot, shared by map and reduce phases:
	// tasks acquire a slot before running, so a shard never has two
	// concurrent writers and the shard count is bounded by the worker pool,
	// not by the task count. The task-latency OpRefs are resolved up front:
	// the per-task goroutines then record through direct handles, never a
	// per-call label lookup.
	slots := make(chan int, e.workers)
	mapRefs := make([]metrics.OpRef, e.workers)
	reduceRefs := make([]metrics.OpRef, e.workers)
	for i := range mapRefs {
		slots <- i
		shard := e.rec.SubstrateShard()
		mapRefs[i] = shard.Op("map_task")
		reduceRefs[i] = shard.Op("reduce_task")
	}
	// phase runs task(i, slot) for every i below n, each in a goroutine of
	// its own that holds a worker slot while it runs, and waits for them all.
	phase := func(n int, task func(i, slot int)) {
		var wg sync.WaitGroup
		wg.Add(n)
		for i := 0; i < n; i++ {
			go func() {
				defer wg.Done()
				slot := <-slots
				defer func() { slots <- slot }()
				task(i, slot)
			}()
		}
		wg.Wait()
	}

	// ---- Map phase: each mapper owns a split and emits into
	// per-partition buffers.
	mapStart := time.Now()
	mapOut := make([][][]KV, numMappers) // mapper -> partition -> records
	var mapOutCount, combineOutCount int64
	phase(numMappers, func(m, slot int) {
		taskStart := mapRefs[slot].StartTimer()
		lo := len(input) * m / numMappers
		hi := len(input) * (m + 1) / numMappers
		buckets := make([][]KV, numReducers)
		emit := func(k, v string) {
			p := partition(k, numReducers)
			buckets[p] = append(buckets[p], KV{k, v})
			atomic.AddInt64(&mapOutCount, 1)
		}
		for _, rec := range input[lo:hi] {
			job.Map(rec.Key, rec.Value, emit)
		}
		if job.Combine != nil {
			for p := range buckets {
				buckets[p] = combine(job.Combine, buckets[p])
				atomic.AddInt64(&combineOutCount, int64(len(buckets[p])))
			}
		}
		mapOut[m] = buckets
		mapRefs[slot].ObserveSince(taskStart)
	})
	st.MapWall = time.Since(mapStart)
	st.MapOutputRecords = mapOutCount
	st.CombineOutRecords = combineOutCount

	// Map-only job: concatenate mapper outputs in mapper order.
	if job.Reduce == nil {
		out := concat(mapOut...)
		st.OutputRecords = int64(len(out))
		return out, st, nil
	}

	// ---- Shuffle phase: every reduce partition gathers its records from
	// all mappers, in mapper order, and sorts them by key (the merge-sort
	// the real shuffle performs). Partitions share nothing, so each is a
	// task of its own; it records no operation.
	shuffleStart := time.Now()
	partitions := make([][]KV, numReducers)
	var shuffleBytes int64
	phase(numReducers, func(p, _ int) {
		fromMappers := make([][]KV, numMappers)
		for m := range mapOut {
			fromMappers[m] = mapOut[m][p]
		}
		part := concat(fromMappers)
		var bytes int64
		for _, kv := range part {
			bytes += int64(len(kv.Key) + len(kv.Value))
		}
		sort.SliceStable(part, func(i, j int) bool { return part[i].Key < part[j].Key })
		partitions[p] = part
		atomic.AddInt64(&shuffleBytes, bytes)
	})
	st.ShuffleBytes = shuffleBytes
	st.ShuffleWall = time.Since(shuffleStart)

	// ---- Reduce phase: group runs of equal keys and fold them.
	reduceStart := time.Now()
	reduceOut := make([][]KV, numReducers)
	var groupCount int64
	phase(numReducers, func(p, slot int) {
		taskStart := reduceRefs[slot].StartTimer()
		part := partitions[p]
		var out []KV
		emit := func(k, v string) { out = append(out, KV{k, v}) }
		for i := 0; i < len(part); {
			j := i
			for j < len(part) && part[j].Key == part[i].Key {
				j++
			}
			values := make([]string, 0, j-i)
			for _, kv := range part[i:j] {
				values = append(values, kv.Value)
			}
			job.Reduce(part[i].Key, values, emit)
			atomic.AddInt64(&groupCount, 1)
			i = j
		}
		reduceOut[p] = out
		reduceRefs[slot].ObserveSince(taskStart)
	})
	st.ReduceGroups = groupCount
	st.ReduceWall = time.Since(reduceStart)

	out := concat(reduceOut)
	st.OutputRecords = int64(len(out))
	return out, st, nil
}

// concat returns the records of every part of every group, in order, in one
// slice allocated at their total size (nil when there are none).
func concat(groups ...[][]KV) []KV {
	size := 0
	for _, parts := range groups {
		for _, part := range parts {
			size += len(part)
		}
	}
	out := slices.Grow([]KV(nil), size)
	for _, parts := range groups {
		for _, part := range parts {
			out = append(out, part...)
		}
	}
	return out
}

// combine groups a single mapper's partition buffer by key and applies the
// combiner.
func combine(c Reducer, records []KV) []KV {
	if len(records) == 0 {
		return records
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Key < records[j].Key })
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	for i := 0; i < len(records); {
		j := i
		for j < len(records) && records[j].Key == records[i].Key {
			j++
		}
		values := make([]string, 0, j-i)
		for _, kv := range records[i:j] {
			values = append(values, kv.Value)
		}
		c(records[i].Key, values, emit)
		i = j
	}
	return out
}

// RangePartitioner builds a partitioner from sorted split points: keys below
// splits[0] go to partition 0, etc. TeraSort-style total ordering uses it
// with sampled split points.
func RangePartitioner(splits []string) Partitioner {
	points := append([]string(nil), splits...)
	sort.Strings(points)
	return func(key string, n int) int {
		idx := sort.SearchStrings(points, key)
		if idx >= n {
			idx = n - 1
		}
		return idx
	}
}

// SampleSplits picks n-1 evenly spaced split points from a sample of the
// input keys, for use with RangePartitioner over n partitions.
func SampleSplits(input []KV, n int, sampleSize int, g *stats.RNG) []string {
	if n <= 1 || len(input) == 0 {
		return nil
	}
	if sampleSize > len(input) {
		sampleSize = len(input)
	}
	sample := make([]string, sampleSize)
	for i := 0; i < sampleSize; i++ {
		sample[i] = input[g.IntN(len(input))].Key
	}
	sort.Strings(sample)
	splits := make([]string, 0, n-1)
	for i := 1; i < n; i++ {
		splits = append(splits, sample[i*len(sample)/n])
	}
	return splits
}
