package mapreduce

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/stacks"
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
		SortOutput:  true,
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

func TestStackInterface(t *testing.T) {
	e := New(2)
	if e.Name() == "" || e.Type() != stacks.TypeMapReduce {
		t.Fatal("stack identity wrong")
	}
	if e.Workers() != 2 {
		t.Fatal("workers accessor wrong")
	}
	var _ stacks.Stack = e
}

func TestWorkerClamp(t *testing.T) {
	if New(0).Workers() != 1 {
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

// serialRun is the job without the engine: one mapper over the whole input, no
// combiner, each partition stable-sorted and folded in turn.
func serialRun(job Job, input []KV, numReducers int) []KV {
	partition := job.Partition
	if partition == nil {
		partition = HashPartition
	}
	parts := make([][]KV, numReducers)
	for _, rec := range input {
		job.Map(rec.Key, rec.Value, func(k, v string) {
			p := partition(k, numReducers)
			parts[p] = append(parts[p], KV{k, v})
		})
	}
	var out []KV
	for _, part := range parts {
		sort.SliceStable(part, func(i, j int) bool { return part[i].Key < part[j].Key })
		for i := 0; i < len(part); {
			var values []string
			j := i
			for ; j < len(part) && part[j].Key == part[i].Key; j++ {
				values = append(values, part[j].Value)
			}
			job.Reduce(part[i].Key, values, func(k, v string) { out = append(out, KV{k, v}) })
			i = j
		}
	}
	return out
}

// TestShuffleMatchesSerial: the shuffle runs one task per reduce partition in
// parallel. Its records are those of a serial run in the same order (the
// identity jobs emit every value, so a gather out of mapper order or an
// unstable sort shows), and every counter is the same at any slot count.
func TestShuffleMatchesSerial(t *testing.T) {
	g := stats.NewRNG(4)
	input := make([]KV, 3000)
	for i := range input {
		// Few distinct keys, distinct values: equal keys meet from every mapper.
		input[i] = KV{g.RandomWord(1, 2), strconv.Itoa(i) + " " + g.RandomWord(2, 5)}
	}
	identity := Job{
		Name: "identity-sort",
		Map:  func(k, v string, emit func(k, v string)) { emit(k, v) },
		Reduce: func(k string, vs []string, emit func(k, v string)) {
			for _, v := range vs {
				emit(k, v)
			}
		},
	}
	wordCount := wordCountJob()
	wordCount.Combine = wordCount.Reduce
	ranged := identity
	ranged.Name = "range-sort"
	ranged.Partition = RangePartitioner(SampleSplits(input, 5, 400, g))
	ranged.SortOutput = true
	for _, job := range []Job{identity, wordCount, ranged} {
		job.NumMappers, job.NumReducers = 6, 5
		want := serialRun(job, input, job.NumReducers)
		var wantSt Stats
		for _, workers := range []int{1, 2, 8} {
			got, st, err := New(workers).Run(job, input)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) == 0 || !slices.Equal(got, want) {
				t.Fatalf("%s at %d workers: %d records, not the serial run's %d in their order", job.Name, workers, len(got), len(want))
			}
			st.MapWall, st.ShuffleWall, st.ReduceWall = 0, 0, 0
			if workers == 1 {
				wantSt = st
			}
			if st != wantSt || st.ShuffleBytes == 0 || st.OutputRecords != int64(len(want)) {
				t.Fatalf("%s at %d workers: stats %+v, at 1 worker %+v", job.Name, workers, st, wantSt)
			}
		}
	}
}
