// Package micro implements the micro-benchmark workloads every surveyed
// suite starts from — Sort, WordCount, Grep and TeraSort — on the MapReduce
// substrate. Scale is measured in thousands of input records.
package micro

import (
	"context"
	"fmt"
	"strconv"
	"strings"

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
	return arenaInput(p, c, func(g *stats.RNG, i int64, b *strings.Builder) (int, int) {
		var num [20]byte
		key := strconv.AppendInt(num[:0], i, 10)
		if b != nil {
			b.Write(key)
		}
		n := wordsPerLine - 1
		for w := 0; w < wordsPerLine; w++ {
			word := dict[g.IntN(len(dict))]
			n += len(word)
			if b != nil {
				if w > 0 {
					b.WriteByte(' ')
				}
				b.WriteString(word)
			}
		}
		return len(key), n
	})
}

// keyInput builds Scale*1000 records with random string keys (for sorts)
// through the chunked pipeline, accounting preparation time to c.
func keyInput(p workloads.Params, c *metrics.Collector) []mapreduce.KV {
	return arenaInput(p, c, func(g *stats.RNG, i int64, b *strings.Builder) (int, int) {
		var word [16]byte
		var num [20]byte
		key, value := g.AppendWord(word[:0], 8, 16), strconv.AppendInt(num[:0], i, 10)
		if b != nil {
			b.Write(key)
			b.Write(value)
		}
		return len(key), len(value)
	})
}

// arenaInput builds Scale*1000 records in chunks, accounting the wall time to
// c's data-generation family. Each chunk's records share one mapreduce.Arena,
// whose record function record is, over absolute record numbers. Parallel
// hands every chunk a fresh RNG, so both of Arena's passes make the same draws.
func arenaInput(p workloads.Params, c *metrics.Collector, record func(g *stats.RNG, i int64, b *strings.Builder) (int, int)) []mapreduce.KV {
	n := int64(p.Scale) * 1000
	t0 := c.Now()
	input, err := datagen.Generate(p.Seed, datagen.PlanChunks(n, 0), p.DatagenWorkers,
		func(g *stats.RNG, ch datagen.Chunk, dst []mapreduce.KV) error {
			mapreduce.Arena(dst, g, func(g *stats.RNG, i int, b *strings.Builder) (int, int) {
				return record(g, ch.Start+int64(i), b)
			})
			return nil
		})
	if err != nil {
		// Word and key sampling cannot fail by construction.
		panic(err)
	}
	c.RecordDatagen(c.Now().Sub(t0), n)
	return input
}

// WordCount counts word occurrences with a combiner — the paper's canonical
// text micro-benchmark.
var WordCount = workloads.New("wordcount", workloads.Offline, "micro", wordCount, stacks.TypeMapReduce)

func wordCount(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	input := textInput(p, 10, c)
	if err := ctx.Err(); err != nil {
		return err
	}
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name: "wordcount",
		Map: func(_, value string, emit func(k, v string)) {
			mapreduce.Words(value, func(w string) { emit(w, "1") })
		},
		Reduce: sumReducer,
	}
	job.Combine = job.Reduce
	t0 := c.Now()
	out, st, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.Op("job").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(int64(len(input)))
	c.CounterRef("shuffle_bytes").Add(st.ShuffleBytes)
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
var Grep = workloads.New("grep", workloads.Offline, "micro", grep, stacks.TypeMapReduce)

// grepPattern is the substring Grep keeps lines for.
const grepPattern = "data"

func grep(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	input := textInput(p, 10, c)
	if err := ctx.Err(); err != nil {
		return err
	}
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name: "grep",
		Map: func(k, v string, emit func(k, v string)) {
			if strings.Contains(v, grepPattern) {
				emit(k, v)
			}
		},
	}
	t0 := c.Now()
	out, _, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.Op("job").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(int64(len(input)))
	c.CounterRef("matches").Add(int64(len(out)))
	for _, kv := range out {
		if !strings.Contains(kv.Value, grepPattern) {
			return fmt.Errorf("grep: non-matching line %q in output", kv.Value)
		}
	}
	return nil
}

// Sort orders records by key with the default hash partitioner: each
// partition is sorted (Hadoop's per-reducer order).
var Sort = workloads.New("sort", workloads.Offline, "micro", sortByKey, stacks.TypeMapReduce)

func sortByKey(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	input := keyInput(p, c)
	if err := ctx.Err(); err != nil {
		return err
	}
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name:        "sort",
		Map:         func(k, v string, emit func(k, v string)) { emit(k, v) },
		Reduce:      func(k string, vs []string, emit func(k, v string)) { emit(k, strconv.Itoa(len(vs))) },
		NumReducers: p.Workers,
	}
	t0 := c.Now()
	out, _, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.Op("job").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(int64(len(input)))
	if len(out) == 0 {
		return fmt.Errorf("sort: empty output")
	}
	return nil
}

// TeraSort is the total-order sort: sampled split points feed a range
// partitioner so the concatenated output is globally sorted.
var TeraSort = workloads.New("terasort", workloads.Offline, "micro", teraSort, stacks.TypeMapReduce)

func teraSort(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	input := keyInput(p, c)
	if err := ctx.Err(); err != nil {
		return err
	}
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
	t0 := c.Now()
	out, _, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.Op("job").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(int64(len(input)))
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
