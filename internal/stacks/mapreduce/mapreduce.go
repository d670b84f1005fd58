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
	"strings"
	"sync"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
)

// KV is the engine's record type.
type KV struct {
	Key, Value string
}

// Arena fills dst with records whose keys and values are cut from one
// exact-size string, so an input costs a constant number of allocations
// whatever its record count. record draws record i from g and returns its
// key's and value's lengths; given a builder it also writes the key and then
// the value to it. Arena calls it twice per record: with g and no builder to
// size the string, then with a fresh RNG at g's seed to fill it, so both
// passes make the same draws when g is fresh. A record that draws nothing may
// take a nil g.
func Arena(dst []KV, g *stats.RNG, record func(g *stats.RNG, i int, b *strings.Builder) (int, int)) {
	size := 0
	for i := range dst {
		k, v := record(g, i, nil)
		size += k + v
	}
	if g != nil {
		g = stats.NewRNG(g.Seed())
	}
	var b strings.Builder
	b.Grow(size)
	for i := range dst {
		off := b.Len()
		k, _ := record(g, i, &b)
		arena := b.String()
		dst[i] = KV{Key: arena[off : off+k], Value: arena[off+k:]}
	}
}

// Mapper transforms one input record into zero or more intermediate records.
type Mapper func(key, value string, emit func(k, v string))

// Reducer folds all values of one key into zero or more output records.
// values is valid only during the call: the engine reuses it for the next key.
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
}

// Stats captures the architecture metrics of one job run.
type Stats struct {
	MapInputRecords   int64
	MapOutputRecords  int64
	CombineOutRecords int64
	ShuffleBytes      int64
	ReduceGroups      int64
	OutputRecords     int64
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

// Run executes the job over the input and returns the output records plus
// run statistics. The output concatenates the reduce partitions in partition
// order, each partition's groups key-sorted, so with a range partitioner it is
// globally key-sorted; a map-only job's output is in mapper, then partition,
// then emission order.
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

	// ---- Map phase: each mapper owns a split and emits into one run per
	// partition. When anything downstream groups by key it then sorts every
	// segment of every run (the map-side sort of the real shuffle) and the
	// combiner folds the merged segments. A mapper counts what it did in its
	// own mapOutput; the counts meet at the barrier.
	mapOut := make([]mapOutput, numMappers)
	sortScratch := make([][]KV, e.workers) // a merge sort's buffer per worker slot
	phase(numMappers, func(m, slot int) {
		taskStart := mapRefs[slot].StartTimer()
		lo := len(input) * m / numMappers
		hi := len(input) * (m + 1) / numMappers
		o := mapOutput{runs: make([]run, numReducers)}
		emit := func(k, v string) {
			o.runs[partition(k, numReducers)].add(k, v)
			o.emitted++
		}
		for _, rec := range input[lo:hi] {
			job.Map(rec.Key, rec.Value, emit)
		}
		if job.Reduce != nil || job.Combine != nil {
			for _, r := range o.runs {
				r.sortSegments(&sortScratch[slot])
			}
		}
		if job.Combine != nil {
			var mg merger
			for p, r := range o.runs {
				var combined run
				mg.fold(r, job.Combine, combined.add)
				// In key order already unless the combiner changed keys, and
				// sorting an ordered segment costs one pass.
				combined.sortSegments(&sortScratch[slot])
				o.runs[p] = combined
				o.combined += int64(combined.len())
			}
		}
		mapOut[m] = o
		mapRefs[slot].ObserveSince(taskStart)
	})
	for _, o := range mapOut {
		st.MapOutputRecords += o.emitted
		st.CombineOutRecords += o.combined
	}

	// Map-only job: concatenate mapper outputs in mapper order.
	if job.Reduce == nil {
		all := make([]run, 0, numMappers*numReducers)
		for _, o := range mapOut {
			all = append(all, o.runs...)
		}
		out := flatten(all)
		st.OutputRecords = int64(len(out))
		return out, st, nil
	}

	// ---- Shuffle phase: every reduce partition is handed the sorted
	// segments the mappers hold for it, in mapper order. No record is copied;
	// the merge of those segments streams into the reduce tasks.
	sources := make([]run, numReducers)
	for p := range sources {
		for _, o := range mapOut {
			sources[p] = append(sources[p], o.runs[p]...)
		}
	}

	// ---- Reduce phase: k-way merge the partition's segments and fold each
	// run of equal keys. Equal keys leave the merge in mapper order, then
	// emission order: the order concatenating the mappers' records and
	// stable-sorting them would give.
	reduceOut := make([]run, numReducers)
	merged := make([]merger, numReducers)
	phase(numReducers, func(p, slot int) {
		taskStart := reduceRefs[slot].StartTimer()
		var mg merger
		var out run
		mg.fold(sources[p], job.Reduce, out.add)
		reduceOut[p], merged[p] = out, mg
		reduceRefs[slot].ObserveSince(taskStart)
	})
	for _, mg := range merged {
		st.ReduceGroups += mg.keys
		st.ShuffleBytes += mg.bytes
	}

	out := flatten(reduceOut)
	st.OutputRecords = int64(len(out))
	return out, st, nil
}

// mapOutput is what one map task hands to the barrier: a run per reduce
// partition and the task's own counts.
type mapOutput struct {
	runs              []run
	emitted, combined int64
}

// A run grows in segments that are never re-copied, so a task allocates about
// what it emits however much that is: the first segment holds firstSegment
// records and each next one twice the last, up to maxSegment.
const (
	firstSegment = 32
	maxSegment   = 4096
)

// run is an append-only list of records in segments. After sortSegments each
// segment is key-sorted on its own; the merger treats segments as the sorted
// sequences they are and breaks ties by segment order.
type run [][]KV

func (r *run) add(k, v string) {
	last := len(*r) - 1
	if last < 0 || len((*r)[last]) == cap((*r)[last]) {
		size := firstSegment
		if last >= 0 {
			size = min(2*cap((*r)[last]), maxSegment)
		}
		*r = append(*r, make([]KV, 0, size))
		last++
	}
	(*r)[last] = append((*r)[last], KV{k, v})
}

func (r run) len() int {
	n := 0
	for _, seg := range r {
		n += len(seg)
	}
	return n
}

// sortSegments stable-sorts each segment by key, growing scratch to the
// run's longest segment for the merge sort to use.
func (r run) sortSegments(scratch *[]KV) {
	longest := 0
	for _, seg := range r {
		longest = max(longest, len(seg))
	}
	if len(*scratch) < longest {
		*scratch = make([]KV, longest)
	}
	for _, seg := range r {
		mergeSort(seg, (*scratch)[:len(seg)])
	}
}

// sortBlock is the length of the runs mergeSort insertion-sorts before it
// starts merging.
const sortBlock = 24

// mergeSort stable-sorts seg by key: a bottom-up merge sort over
// insertion-sorted blocks, each pass merging neighbouring runs from seg into
// buf or back (buf is as long as seg). An ordered segment costs one pass.
func mergeSort(seg, buf []KV) {
	if slices.IsSortedFunc(seg, func(a, b KV) int { return strings.Compare(a.Key, b.Key) }) {
		return
	}
	n := len(seg)
	for lo := 0; lo < n; lo += sortBlock {
		insertionSort(seg[lo:min(lo+sortBlock, n)])
	}
	src, dst := seg, buf
	for width := sortBlock; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			merge(dst[lo:hi], src[lo:mid], src[mid:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &seg[0] {
		copy(seg, src)
	}
}

// insertionSort stable-sorts a short segment by key.
func insertionSort(seg []KV) {
	for i := 1; i < len(seg); i++ {
		for j := i; j > 0 && seg[j].Key < seg[j-1].Key; j-- {
			seg[j], seg[j-1] = seg[j-1], seg[j]
		}
	}
}

// merge writes the sorted a and b into dst in key order, a's record first
// of two with equal keys.
func merge(dst, a, b []KV) {
	k := 0
	for len(a) > 0 && len(b) > 0 {
		if b[0].Key < a[0].Key {
			dst[k], b = b[0], b[1:]
		} else {
			dst[k], a = a[0], a[1:]
		}
		k++
	}
	k += copy(dst[k:], a)
	copy(dst[k:], b)
}

// flatten returns the records of the runs, in order, in one slice allocated
// at their total size (nil when there are none).
func flatten(runs []run) []KV {
	size := 0
	for _, r := range runs {
		size += r.len()
	}
	out := slices.Grow([]KV(nil), size)
	for _, r := range runs {
		for _, seg := range r {
			out = append(out, seg...)
		}
	}
	return out
}

// cursor is the unread, non-empty rest of one sorted segment; src is the
// segment's place among the merged ones.
type cursor struct {
	rest []KV
	src  int
}

// merger k-way merges sorted segments through a binary min-heap of cursors
// ordered by head key, then src. It keeps its heap and the values scratch
// between folds, so a task allocates them once, and counts the distinct keys
// and the key and value bytes of the records it has merged.
type merger struct {
	heap        []cursor
	values      []string
	keys, bytes int64
}

func (mg *merger) less(i, j int) bool {
	a, b := &mg.heap[i], &mg.heap[j]
	if c := strings.Compare(a.rest[0].Key, b.rest[0].Key); c != 0 {
		return c < 0
	}
	return a.src < b.src
}

// down restores the heap below i.
func (mg *merger) down(i int) {
	for {
		least := 2*i + 1
		if least >= len(mg.heap) {
			return
		}
		if right := least + 1; right < len(mg.heap) && mg.less(right, least) {
			least = right
		}
		if !mg.less(least, i) {
			return
		}
		mg.heap[i], mg.heap[least] = mg.heap[least], mg.heap[i]
		i = least
	}
}

// fold merges the sorted segments of r and calls f once per distinct key,
// smallest first, with the key's values ordered by segment, then position.
// values is valid only during the call.
func (mg *merger) fold(r run, f Reducer, emit func(k, v string)) {
	mg.heap = slices.Grow(mg.heap[:0], len(r))
	for src, seg := range r { // a run has no empty segment
		mg.heap = append(mg.heap, cursor{seg, src})
	}
	for i := len(mg.heap)/2 - 1; i >= 0; i-- {
		mg.down(i)
	}
	for len(mg.heap) > 0 {
		key := mg.heap[0].rest[0].Key
		mg.values = mg.values[:0]
		// The top cursor holds the key's values that come first; taking them
		// all costs one heap fix, not one per record.
		for len(mg.heap) > 0 && mg.heap[0].rest[0].Key == key {
			rest := mg.heap[0].rest
			for len(rest) > 0 && rest[0].Key == key {
				mg.values = append(mg.values, rest[0].Value)
				mg.bytes += int64(len(key) + len(rest[0].Value))
				rest = rest[1:]
			}
			if mg.heap[0].rest = rest; len(rest) == 0 {
				last := len(mg.heap) - 1
				mg.heap[0] = mg.heap[last]
				mg.heap = mg.heap[:last]
			}
			mg.down(0)
		}
		f(key, mg.values, emit)
		mg.keys++
	}
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
