package mapreduce

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/stats"
)

func wordCountJob() Job {
	return Job{
		Name: "wordcount",
		Map: func(_, value string, emit func(k, v string)) {
			for _, w := range strings.Fields(value) {
				emit(w, "1")
			}
		},
		Reduce: func(key string, values []string, emit func(k, v string)) {
			total := 0
			for _, v := range values {
				n, _ := strconv.Atoi(v)
				total += n
			}
			emit(key, strconv.Itoa(total))
		},
	}
}

func TestWordCount(t *testing.T) {
	e := New(4)
	input := []KV{
		{"1", "the quick brown fox"},
		{"2", "the lazy dog"},
		{"3", "the quick dog"},
	}
	out, st, err := e.Run(wordCountJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for _, kv := range out {
		counts[kv.Key] = kv.Value
	}
	want := map[string]string{"the": "3", "quick": "2", "dog": "2", "brown": "1", "fox": "1", "lazy": "1"}
	for k, v := range want {
		if counts[k] != v {
			t.Fatalf("count[%s] = %s, want %s (all: %v)", k, counts[k], v, counts)
		}
	}
	if st.MapInputRecords != 3 {
		t.Fatalf("map input %d", st.MapInputRecords)
	}
	if st.MapOutputRecords != 10 {
		t.Fatalf("map output %d, want 10", st.MapOutputRecords)
	}
	if st.ReduceGroups != 6 {
		t.Fatalf("groups %d, want 6", st.ReduceGroups)
	}
}

func TestCombinerReducesShuffle(t *testing.T) {
	e := New(2)
	var input []KV
	for i := 0; i < 200; i++ {
		input = append(input, KV{strconv.Itoa(i), "a a a a a b b"})
	}
	plain := wordCountJob()
	plain.NumMappers = 4
	_, stPlain, err := e.Run(plain, input)
	if err != nil {
		t.Fatal(err)
	}
	combined := wordCountJob()
	combined.NumMappers = 4
	combined.Combine = combined.Reduce
	out, stComb, err := e.Run(combined, input)
	if err != nil {
		t.Fatal(err)
	}
	if stComb.ShuffleBytes >= stPlain.ShuffleBytes {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d", stComb.ShuffleBytes, stPlain.ShuffleBytes)
	}
	counts := map[string]string{}
	for _, kv := range out {
		counts[kv.Key] = kv.Value
	}
	if counts["a"] != "1000" || counts["b"] != "400" {
		t.Fatalf("combined counts wrong: %v", counts)
	}
}

func TestMapOnlyJob(t *testing.T) {
	e := New(2)
	job := Job{
		Name: "grep",
		Map: func(k, v string, emit func(k, v string)) {
			if strings.Contains(v, "match") {
				emit(k, v)
			}
		},
	}
	input := []KV{{"1", "no"}, {"2", "a match here"}, {"3", "nothing"}, {"4", "match"}}
	out, st, err := e.Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("map-only output %d records, want 2", len(out))
	}
	if st.OutputRecords != 2 {
		t.Fatalf("stats output %d", st.OutputRecords)
	}
}

func TestMissingMapper(t *testing.T) {
	e := New(1)
	if _, _, err := e.Run(Job{Name: "bad"}, nil); err == nil {
		t.Fatal("job without mapper accepted")
	}
}

func TestEmptyInput(t *testing.T) {
	e := New(4)
	out, st, err := e.Run(wordCountJob(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || st.MapInputRecords != 0 {
		t.Fatal("empty input should produce empty output")
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	input := make([]KV, 500)
	g := stats.NewRNG(1)
	for i := range input {
		input[i] = KV{strconv.Itoa(i), g.RandomWord(3, 6) + " " + g.RandomWord(3, 6)}
	}
	norm := func(out []KV) []KV {
		s := append([]KV(nil), out...)
		sort.Slice(s, func(i, j int) bool {
			if s[i].Key != s[j].Key {
				return s[i].Key < s[j].Key
			}
			return s[i].Value < s[j].Value
		})
		return s
	}
	job := wordCountJob()
	job.NumMappers = 7
	job.NumReducers = 3
	a, _, err := New(1).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := New(8).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	na, nb := norm(a), norm(b)
	if len(na) != len(nb) {
		t.Fatalf("lengths differ: %d vs %d", len(na), len(nb))
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("record %d differs: %v vs %v", i, na[i], nb[i])
		}
	}
}

func TestSortWithRangePartitioner(t *testing.T) {
	g := stats.NewRNG(2)
	input := make([]KV, 2000)
	for i := range input {
		input[i] = KV{g.RandomWord(5, 10), "v"}
	}
	splits := SampleSplits(input, 4, 500, g)
	job := Job{
		Name:        "sort",
		Map:         func(k, v string, emit func(k, v string)) { emit(k, v) },
		Reduce:      func(k string, vs []string, emit func(k, v string)) { emit(k, strconv.Itoa(len(vs))) },
		Partition:   RangePartitioner(splits),
		NumReducers: 4,
	}
	out, _, err := New(4).Run(job, input)
	if err != nil {
		t.Fatal(err)
	}
	// With a range partitioner, the concatenated partitions are globally
	// key-sorted.
	for i := 1; i < len(out); i++ {
		if out[i].Key < out[i-1].Key {
			t.Fatalf("output not globally sorted at %d: %q < %q", i, out[i].Key, out[i-1].Key)
		}
	}
}

func TestRangePartitionerBounds(t *testing.T) {
	p := RangePartitioner([]string{"h", "p"})
	if p("a", 3) != 0 {
		t.Fatal("low key should route to partition 0")
	}
	if p("m", 3) != 1 {
		t.Fatal("middle key should route to partition 1")
	}
	if p("z", 3) != 2 {
		t.Fatal("high key should route to last partition")
	}
	if p("z", 2) != 1 {
		t.Fatal("partition index must clamp to n-1")
	}
}

func TestSampleSplitsDegenerate(t *testing.T) {
	g := stats.NewRNG(3)
	if SampleSplits(nil, 4, 10, g) != nil {
		t.Fatal("empty input should give nil splits")
	}
	if SampleSplits([]KV{{"a", ""}}, 1, 10, g) != nil {
		t.Fatal("single partition should give nil splits")
	}
	splits := SampleSplits([]KV{{"a", ""}, {"b", ""}, {"c", ""}, {"d", ""}}, 2, 100, g)
	if len(splits) != 1 {
		t.Fatalf("splits %v", splits)
	}
}

func TestWorkerClamp(t *testing.T) {
	if New(0).workers != 1 {
		t.Fatal("workers should clamp to 1")
	}
}

func TestIterativeChaining(t *testing.T) {
	// Two chained jobs: first counts words, second buckets counts — the
	// multi-operation pattern workloads use.
	e := New(4)
	input := []KV{{"1", "x x x y y z"}}
	first, _, err := e.Run(wordCountJob(), input)
	if err != nil {
		t.Fatal(err)
	}
	second := Job{
		Name: "histogram",
		Map: func(k, v string, emit func(k, v string)) {
			emit(v, k) // count -> word
		},
		Reduce: func(count string, words []string, emit func(k, v string)) {
			emit(count, fmt.Sprintf("%d", len(words)))
		},
	}
	out, _, err := e.Run(second, first)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, kv := range out {
		got[kv.Key] = kv.Value
	}
	// one word with count 3 (x), one with 2 (y), one with 1 (z)
	if got["3"] != "1" || got["2"] != "1" || got["1"] != "1" {
		t.Fatalf("histogram wrong: %v", got)
	}
}

// foldSorted stable-sorts the records by key and folds each run of equal keys.
func foldSorted(records []KV, f Reducer) (out []KV, groups int64) {
	sort.SliceStable(records, func(i, j int) bool { return records[i].Key < records[j].Key })
	for i := 0; i < len(records); groups++ {
		var values []string
		j := i
		for ; j < len(records) && records[j].Key == records[i].Key; j++ {
			values = append(values, records[j].Value)
		}
		f(records[i].Key, values, func(k, v string) { out = append(out, KV{k, v}) })
		i = j
	}
	return out, groups
}

// serialRun is the job without the engine, its segments or its merge: every
// mapper's split in turn into one bucket per partition, each bucket
// stable-sorted and combined, the buckets of a partition concatenated in
// mapper order, stable-sorted again and folded.
func serialRun(job Job, input []KV, numMappers, numReducers int) ([]KV, Stats) {
	if numMappers > len(input) && len(input) > 0 {
		numMappers = len(input)
	}
	partition := job.Partition
	if partition == nil {
		partition = HashPartition
	}
	st := Stats{MapInputRecords: int64(len(input))}
	parts := make([][]KV, numReducers)
	for m := 0; m < numMappers; m++ {
		buckets := make([][]KV, numReducers)
		for _, rec := range input[len(input)*m/numMappers : len(input)*(m+1)/numMappers] {
			job.Map(rec.Key, rec.Value, func(k, v string) {
				p := partition(k, numReducers)
				buckets[p] = append(buckets[p], KV{k, v})
				st.MapOutputRecords++
			})
		}
		for p, bucket := range buckets {
			if job.Combine != nil {
				bucket, _ = foldSorted(bucket, job.Combine)
				st.CombineOutRecords += int64(len(bucket))
			}
			parts[p] = append(parts[p], bucket...)
		}
	}
	var out []KV
	for _, part := range parts {
		for _, kv := range part {
			st.ShuffleBytes += int64(len(kv.Key) + len(kv.Value))
		}
		folded, groups := foldSorted(part, job.Reduce)
		out = append(out, folded...)
		st.ReduceGroups += groups
	}
	st.OutputRecords = int64(len(out))
	return out, st
}

// TestShuffleMatchesSerial sweeps the job space from a seed: mappers 1-7 x
// reducers 1-6, with and without a combiner, hash and range partitioner, one
// distinct key to all distinct, empty input, partitions no mapper emits to, and
// runs of several segments up to past the segment cap. The engine's records are
// those of the serial run in the same order (both reducers are order-sensitive,
// so a merge out of mapper order or an unstable sort shows), and every counter
// is the serial run's, at any slot count.
func TestShuffleMatchesSerial(t *testing.T) {
	emitAll := func(k string, vs []string, emit func(k, v string)) {
		for _, v := range vs {
			emit(k, v)
		}
	}
	// Associative and order-sensitive, so it is a combiner too.
	join := func(k string, vs []string, emit func(k, v string)) { emit(k, strings.Join(vs, ",")) }
	g := stats.NewRNG(4)
	pick := func(xs ...int) int { return xs[g.IntN(len(xs))] }
	emptyPartitions := 0
	for c := 0; c < 252; c++ {
		mappers, reducers := 1+c%7, 1+c/7%6
		n := pick(0, 1, 7, 300, 300, 1500, 1500)
		if c%42 == 0 {
			// One mapper, at most two partitions: runs longer than a full-size segment.
			mappers, n = 1, 3*maxSegment
		}
		distinct := max(1, pick(1, 2, 5, 50, n))
		input := make([]KV, n)
		for i := range input {
			input[i] = KV{"k" + strconv.Itoa(g.IntN(distinct)), strconv.Itoa(i)}
		}
		job := Job{
			Name: fmt.Sprintf("case %d: %d records, %d keys, %dx%d", c, n, distinct, mappers, reducers),
			// Nothing, one record or two per input record.
			Map: func(k, v string, emit func(k, v string)) {
				switch v[len(v)-1] {
				case '7':
				case '3':
					emit(k, v)
					emit("dup-"+k, v)
				default:
					emit(k, v)
				}
			},
			Reduce:      []Reducer{emitAll, join}[g.IntN(2)],
			NumMappers:  mappers,
			NumReducers: reducers,
		}
		if g.IntN(2) == 0 {
			job.Combine = join
		}
		if g.IntN(2) == 0 {
			job.Partition = RangePartitioner(SampleSplits(input, reducers, 100, g))
		}
		want, wantSt := serialRun(job, input, mappers, reducers)
		if wantSt.ReduceGroups < int64(reducers) {
			emptyPartitions++
		}
		for _, workers := range []int{1, 2, 8} {
			got, st, err := New(workers).Run(job, input)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s at %d workers: %d records, not the serial run's %d in their order", job.Name, workers, len(got), len(want))
			}
			if st != wantSt {
				t.Fatalf("%s at %d workers: stats %+v, serial run %+v", job.Name, workers, st, wantSt)
			}
		}
	}
	if emptyPartitions == 0 {
		t.Fatal("no case left a partition empty")
	}
}

// TestMapMemoryFollowsOutput: a job allocates in proportion to what its mappers
// emit, whether that is ten thousand records or fifty. A map-only identity job
// holds its output twice (the mapper's segments, at most double what they hold
// plus the first, and the result), one with a reducer a third time (the reduce
// task's segments); buckets regrown from nil, a gathered partition and a values
// slice per key cost two to four times that, and a fixed-size first segment
// would cost the small job many times its output.
func TestMapMemoryFollowsOutput(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the detector's own bookkeeping shows up in TotalAlloc")
	}
	const fixed = 4 << 10 // slots, handles, task closures: a job over no input costs about 1 kB
	identity := Job{Name: "identity", Map: func(k, v string, emit func(k, v string)) { emit(k, v) }}
	reduced := identity
	reduced.Reduce = func(k string, vs []string, emit func(k, v string)) {
		for _, v := range vs {
			emit(k, v)
		}
	}
	for _, tc := range []struct {
		job    Job
		factor uint64
	}{{identity, 3}, {reduced, 5}} {
		for _, n := range []int{50, 10000} {
			input := make([]KV, n)
			for i := range input {
				input[i] = KV{strconv.Itoa(i), "v"}
			}
			e := New(1)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			out, _, err := e.Run(tc.job, input)
			runtime.ReadMemStats(&after)
			if err != nil || len(out) != n {
				t.Fatalf("%d records out of %d, err %v", len(out), n, err)
			}
			got := after.TotalAlloc - before.TotalAlloc
			if limit := tc.factor*uint64(n)*uint64(unsafe.Sizeof(KV{})) + fixed; got > limit {
				t.Errorf("%d records (reducer: %v): the job allocated %d bytes, want at most %d", n, tc.job.Reduce != nil, got, limit)
			}
		}
	}
}

// TestMergeSortIsStable: over random segments — empty, shorter and longer
// than a block, ordered, reversed, and with few distinct keys so most have
// ties — the merge sort leaves what slices.SortStableFunc leaves, equal keys
// in their order, whatever the scratch held before.
func TestMergeSortIsStable(t *testing.T) {
	g := stats.NewRNG(10)
	var scratch []KV
	for trial := 0; trial < 400; trial++ {
		n := g.IntN(3 * maxSegment / 2)
		if trial%4 == 0 {
			n = g.IntN(3 * sortBlock)
		}
		distinct := 1 + g.IntN(n+1)
		seg := make([]KV, n)
		for i := range seg {
			seg[i] = KV{Key: strconv.Itoa(g.IntN(distinct)), Value: strconv.Itoa(i)}
		}
		switch trial % 5 {
		case 1:
			slices.SortStableFunc(seg, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
		case 2:
			slices.Reverse(seg)
		}
		want := slices.Clone(seg)
		slices.SortStableFunc(want, func(a, b KV) int { return strings.Compare(a.Key, b.Key) })
		run{seg}.sortSegments(&scratch)
		if !slices.Equal(seg, want) {
			t.Fatalf("trial %d (%d records, %d keys): merge sort differs from a stable sort", trial, n, distinct)
		}
	}
}
