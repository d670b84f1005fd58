// Package search implements the search-engine domain workloads of the
// paper's survey (HiBench's Nutch indexing, BigDataBench's index and
// PageRank): inverted-index construction on MapReduce and PageRank on the
// BSP graph engine. Scale is thousands of documents (index) or the log2
// vertex count minus 8 (pagerank), keeping laptop-size defaults.
package search

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks"
	"github.com/bdbench/bdbench/internal/stacks/graphengine"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/stats"
	"github.com/bdbench/bdbench/internal/workloads"
)

// InvertedIndex builds word -> sorted doc-id postings with MapReduce, then
// verifies lookups against a direct scan.
var InvertedIndex = workloads.New("inverted-index", workloads.Realtime, "search engine",
	invertedIndex, stacks.TypeMapReduce)

// postings runs the inverted-index job on eng over docs: for every word, the
// ascending IDs (indexes into docs) of the documents holding it, joined by
// commas. The input is cut from one arena, and a mapper finds a document's
// distinct words in a list on its stack, so the map phase allocates per chunk
// of records, not per document or per word.
func postings(eng *mapreduce.Engine, docs textgen.Corpus) ([]mapreduce.KV, error) {
	job := mapreduce.Job{
		Name: "inverted-index",
		Map: func(docID, text string, emit func(k, v string)) {
			// A document with more distinct words has the list grown on the heap.
			seen := make([]string, 0, 64)
			mapreduce.Words(text, func(w string) {
				if !slices.Contains(seen, w) {
					emit(w, docID)
					seen = append(seen, w)
				}
			})
		},
		Reduce: func(word string, docIDs []string, emit func(k, v string)) {
			ids := append([]string(nil), docIDs...)
			slices.SortFunc(ids, func(x, y string) int {
				a, _ := strconv.Atoi(x)
				b, _ := strconv.Atoi(y)
				return cmp.Compare(a, b)
			})
			emit(word, strings.Join(ids, ","))
		},
	}
	out, _, err := eng.Run(job, mapreduce.TextInput(docs, func(i int) int { return i }))
	return out, err
}

func invertedIndex(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	t0gen := c.Now()
	docs := textgen.ReferenceCorpusParallel(p.Seed, p.Scale*1000, 40, p.DatagenWorkers)
	c.RecordDatagen(c.Now().Sub(t0gen), int64(len(docs)))
	if err := ctx.Err(); err != nil {
		return err
	}
	t0 := c.Now()
	out, err := postings(mapreduce.New(p.Workers).Instrument(c), docs)
	if err != nil {
		return err
	}
	c.Op("build").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(int64(len(docs)))
	c.CounterRef("terms").Add(int64(len(out)))

	// Verify a handful of postings against a direct scan.
	index := make(map[string]string, len(out))
	for _, kv := range out {
		index[kv.Key] = kv.Value
	}
	g := stats.NewRNG(p.Seed + 7)
	for probe := 0; probe < 5; probe++ {
		doc := docs[g.IntN(len(docs))]
		word := doc[g.IntN(len(doc))]
		list, ok := index[word]
		if !ok {
			return fmt.Errorf("inverted-index: word %q missing from index", word)
		}
		if err := checkPostings(docs, word, list); err != nil {
			return err
		}
	}
	return nil
}

// checkPostings reports whether list, a postings list as postings joins it,
// names exactly the documents of docs that hold word, in ascending order.
func checkPostings(docs textgen.Corpus, word, list string) error {
	for i, d := range docs {
		if !slices.Contains(d, word) {
			continue
		}
		id, rest, _ := strings.Cut(list, ",")
		if got, err := strconv.Atoi(id); err != nil || got != i {
			return fmt.Errorf("inverted-index: %q's postings read %q where document %d holds it", word, id, i)
		}
		list = rest
	}
	if list != "" {
		return fmt.Errorf("inverted-index: %q's postings name documents that do not hold it: %q", word, list)
	}
	return nil
}

// PageRank ranks an RMAT web graph on the BSP engine and checks rank-mass
// conservation and hub dominance.
var PageRank = workloads.New("pagerank", workloads.Offline, "search engine", pageRank, stacks.TypeGraph)

func pageRank(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	scale := 8 + p.Scale // 2^(8+scale) vertices
	t0gen := c.Now()
	g := graphgen.DefaultRMAT.GenerateParallel(p.Seed, scale, p.DatagenWorkers)
	c.RecordDatagen(c.Now().Sub(t0gen), int64(g.NumEdges()))
	if err := ctx.Err(); err != nil {
		return err
	}
	eng := graphengine.New(p.Workers).Instrument(c)
	t0 := c.Now()
	res, err := eng.Run(g, graphengine.PageRank{}, 20)
	if err != nil {
		return err
	}
	c.Op("run").Observe(c.Now().Sub(t0))
	c.CounterRef("records").Add(g.N)
	c.CounterRef("messages").Add(res.MessagesSent)
	c.CounterRef("supersteps").Add(int64(res.Supersteps))
	return checkRanks(g, res.Values)
}

// checkRanks is PageRank's verification: ranks are positive, and the vertex
// most pointed at (in-degree drives rank) outranks the median.
func checkRanks(g *graphgen.Graph, ranks []float64) error {
	var total float64
	for _, v := range ranks {
		if v < 0 {
			return fmt.Errorf("pagerank: negative rank %v", v)
		}
		total += v
	}
	if total <= 0 {
		return fmt.Errorf("pagerank: zero total rank")
	}
	bestIn, bestV := -1, 0
	for v, d := range g.InDegrees() {
		if d > bestIn {
			bestIn, bestV = d, v
		}
	}
	sorted := append([]float64(nil), ranks...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if ranks[bestV] <= median {
		return fmt.Errorf("pagerank: top in-degree vertex rank %.4f not above median %.4f", ranks[bestV], median)
	}
	return nil
}
