// Package micro implements the micro-benchmark workloads every surveyed
// suite starts from — Sort, WordCount, Grep and TeraSort — on the MapReduce
// substrate. Scale is measured in thousands of input records.
package micro

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/bdbench/bdbench/internal/datagen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// textInput builds Scale*1000 input records of random text lines through
// the chunked pipeline (records identical at any DatagenWorkers setting)
// and accounts the preparation wall time to c's data-generation family.
func textInput(p workloads.Params, wordsPerLine int, c *metrics.Collector) []mapreduce.KV {
	dict := textgen.DefaultDictionary()
	n := int64(p.Scale) * 1000
	t0 := time.Now()
	input, err := datagen.Generate(p.Seed, datagen.PlanChunks(n, 0), p.DatagenWorkers,
		func(g *stats.RNG, ch datagen.Chunk) ([]mapreduce.KV, error) {
			part := make([]mapreduce.KV, 0, ch.Len())
			var line []byte // reused across the chunk: a line costs its one string, not a buffer regrown from nil
			for i := ch.Start; i < ch.End; i++ {
				line = line[:0]
				for w := 0; w < wordsPerLine; w++ {
					if w > 0 {
						line = append(line, ' ')
					}
					line = append(line, dict[g.IntN(len(dict))]...)
				}
				part = append(part, mapreduce.KV{Key: strconv.FormatInt(i, 10), Value: string(line)})
			}
			return part, nil
		})
	if err != nil {
		// Word sampling cannot fail by construction.
		panic(err)
	}
	c.RecordDatagen(time.Since(t0), n)
	return input
}

// keyInput builds Scale*1000 records with random string keys (for sorts)
// through the chunked pipeline, accounting preparation time to c.
func keyInput(p workloads.Params, c *metrics.Collector) []mapreduce.KV {
	n := int64(p.Scale) * 1000
	t0 := time.Now()
	input, err := datagen.Generate(p.Seed, datagen.PlanChunks(n, 0), p.DatagenWorkers,
		func(g *stats.RNG, ch datagen.Chunk) ([]mapreduce.KV, error) {
			part := make([]mapreduce.KV, 0, ch.Len())
			for i := ch.Start; i < ch.End; i++ {
				part = append(part, mapreduce.KV{Key: g.RandomWord(8, 16), Value: strconv.FormatInt(i, 10)})
			}
			return part, nil
		})
	if err != nil {
		panic(err)
	}
	c.RecordDatagen(time.Since(t0), n)
	return input
}

// WordCount counts word occurrences with a combiner — the paper's canonical
// text micro-benchmark.
type WordCount struct{}

// Name implements workloads.Workload.
func (WordCount) Name() string { return "wordcount" }

// Category implements workloads.Workload.
func (WordCount) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (WordCount) Domain() string { return "micro" }

// StackTypes implements workloads.Workload.
func (WordCount) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeMapReduce} }

// Run implements workloads.Workload.
func (WordCount) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	if err := ctx.Err(); err != nil {
		return err
	}
	input := textInput(p, 10, c)
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name: "wordcount",
		Map: func(_, value string, emit func(k, v string)) {
			for _, w := range strings.Fields(value) {
				emit(w, "1")
			}
		},
		Reduce: sumReducer,
	}
	job.Combine = job.Reduce
	t0 := time.Now()
	out, st, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.ObserveLatency("job", time.Since(t0))
	c.Add("records", int64(len(input)))
	c.Add("shuffle_bytes", st.ShuffleBytes)
	// Verify: total counted words == words emitted.
	var total int64
	for _, kv := range out {
		n, err := strconv.ParseInt(kv.Value, 10, 64)
		if err != nil {
			return fmt.Errorf("wordcount: bad count %q: %w", kv.Value, err)
		}
		total += n
	}
	if want := int64(len(input)) * 10; total != want {
		return fmt.Errorf("wordcount: counted %d words, want %d", total, want)
	}
	return nil
}

func sumReducer(key string, values []string, emit func(k, v string)) {
	total := int64(0)
	for _, v := range values {
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
	}
	emit(key, strconv.FormatInt(total, 10))
}

// Grep filters lines matching a fixed pattern (map-only job).
type Grep struct{}

// grepPattern is the substring Grep keeps lines for.
const grepPattern = "data"

// Name implements workloads.Workload.
func (Grep) Name() string { return "grep" }

// Category implements workloads.Workload.
func (Grep) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (Grep) Domain() string { return "micro" }

// StackTypes implements workloads.Workload.
func (Grep) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeMapReduce} }

// Run implements workloads.Workload.
func (Grep) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	if err := ctx.Err(); err != nil {
		return err
	}
	input := textInput(p, 10, c)
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name: "grep",
		Map: func(k, v string, emit func(k, v string)) {
			if strings.Contains(v, grepPattern) {
				emit(k, v)
			}
		},
	}
	t0 := time.Now()
	out, _, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.ObserveLatency("job", time.Since(t0))
	c.Add("records", int64(len(input)))
	c.Add("matches", int64(len(out)))
	for _, kv := range out {
		if !strings.Contains(kv.Value, grepPattern) {
			return fmt.Errorf("grep: non-matching line %q in output", kv.Value)
		}
	}
	return nil
}

// Sort orders records by key with the default hash partitioner: each
// partition is sorted (Hadoop's per-reducer order).
type Sort struct{}

// Name implements workloads.Workload.
func (Sort) Name() string { return "sort" }

// Category implements workloads.Workload.
func (Sort) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (Sort) Domain() string { return "micro" }

// StackTypes implements workloads.Workload.
func (Sort) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeMapReduce} }

// Run implements workloads.Workload.
func (Sort) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	if err := ctx.Err(); err != nil {
		return err
	}
	input := keyInput(p, c)
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name:        "sort",
		Map:         func(k, v string, emit func(k, v string)) { emit(k, v) },
		Reduce:      func(k string, vs []string, emit func(k, v string)) { emit(k, strconv.Itoa(len(vs))) },
		NumReducers: p.Workers,
	}
	t0 := time.Now()
	out, _, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.ObserveLatency("job", time.Since(t0))
	c.Add("records", int64(len(input)))
	if len(out) == 0 {
		return fmt.Errorf("sort: empty output")
	}
	return nil
}

// TeraSort is the total-order sort: sampled split points feed a range
// partitioner so the concatenated output is globally sorted.
type TeraSort struct{}

// Name implements workloads.Workload.
func (TeraSort) Name() string { return "terasort" }

// Category implements workloads.Workload.
func (TeraSort) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (TeraSort) Domain() string { return "micro" }

// StackTypes implements workloads.Workload.
func (TeraSort) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeMapReduce} }

// Run implements workloads.Workload.
func (TeraSort) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	if err := ctx.Err(); err != nil {
		return err
	}
	input := keyInput(p, c)
	g := stats.NewRNG(p.Seed + 1)
	splits := mapreduce.SampleSplits(input, p.Workers, 1000, g)
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name: "terasort",
		Map:  func(k, v string, emit func(k, v string)) { emit(k, v) },
		Reduce: func(k string, vs []string, emit func(k, v string)) {
			for _, v := range vs {
				emit(k, v)
			}
		},
		Partition:   mapreduce.RangePartitioner(splits),
		NumReducers: p.Workers,
	}
	t0 := time.Now()
	out, _, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.ObserveLatency("job", time.Since(t0))
	c.Add("records", int64(len(input)))
	if len(out) != len(input) {
		return fmt.Errorf("terasort: %d records out, want %d", len(out), len(input))
	}
	for i := 1; i < len(out); i++ {
		if out[i].Key < out[i-1].Key {
			return fmt.Errorf("terasort: output not globally sorted at %d", i)
		}
	}
	return nil
}
