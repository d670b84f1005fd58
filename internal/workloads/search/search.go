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
	"time"

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
type InvertedIndex struct{}

// Name implements workloads.Workload.
func (InvertedIndex) Name() string { return "inverted-index" }

// Category implements workloads.Workload.
func (InvertedIndex) Category() workloads.Category { return workloads.Realtime }

// Domain implements workloads.Workload.
func (InvertedIndex) Domain() string { return "search engine" }

// StackTypes implements workloads.Workload.
func (InvertedIndex) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeMapReduce} }

// Run implements workloads.Workload.
func (InvertedIndex) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	if err := ctx.Err(); err != nil {
		return err
	}
	t0gen := time.Now()
	docs := textgen.ReferenceCorpusParallel(p.Seed, p.Scale*1000, 40, p.DatagenWorkers)
	c.RecordDatagen(time.Since(t0gen), int64(len(docs)))
	input := make([]mapreduce.KV, len(docs))
	for i, d := range docs {
		input[i] = mapreduce.KV{Key: strconv.Itoa(i), Value: strings.Join(d, " ")}
	}
	eng := mapreduce.New(p.Workers).Instrument(c)
	job := mapreduce.Job{
		Name: "inverted-index",
		Map: func(docID, text string, emit func(k, v string)) {
			seen := map[string]bool{}
			for _, w := range strings.Fields(text) {
				if !seen[w] {
					emit(w, docID)
					seen[w] = true
				}
			}
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
	t0 := time.Now()
	out, _, err := eng.Run(job, input)
	if err != nil {
		return err
	}
	c.ObserveLatency("build", time.Since(t0))
	c.Add("records", int64(len(input)))
	c.Add("terms", int64(len(out)))

	// Verify a handful of postings against a direct scan.
	index := make(map[string]string, len(out))
	for _, kv := range out {
		index[kv.Key] = kv.Value
	}
	g := stats.NewRNG(p.Seed + 7)
	for probe := 0; probe < 5; probe++ {
		doc := docs[g.IntN(len(docs))]
		word := doc[g.IntN(len(doc))]
		postings, ok := index[word]
		if !ok {
			return fmt.Errorf("inverted-index: word %q missing from index", word)
		}
		var want []string
		for i, d := range docs {
			for _, w := range d {
				if w == word {
					want = append(want, strconv.Itoa(i))
					break
				}
			}
		}
		if got := strings.Split(postings, ","); len(got) != len(want) {
			return fmt.Errorf("inverted-index: %q has %d postings, want %d", word, len(got), len(want))
		}
	}
	return nil
}

// PageRank ranks an RMAT web graph on the BSP engine and checks rank-mass
// conservation and hub dominance.
type PageRank struct{}

// Name implements workloads.Workload.
func (PageRank) Name() string { return "pagerank" }

// Category implements workloads.Workload.
func (PageRank) Category() workloads.Category { return workloads.Offline }

// Domain implements workloads.Workload.
func (PageRank) Domain() string { return "search engine" }

// StackTypes implements workloads.Workload.
func (PageRank) StackTypes() []stacks.Type { return []stacks.Type{stacks.TypeGraph} }

// Run implements workloads.Workload.
func (PageRank) Run(ctx context.Context, p workloads.Params, c *metrics.Collector) error {
	p = p.WithDefaults()
	if err := ctx.Err(); err != nil {
		return err
	}
	scale := 8 + p.Scale // 2^(8+scale) vertices
	t0gen := time.Now()
	g := graphgen.DefaultRMAT.GenerateParallel(p.Seed, scale, p.DatagenWorkers)
	c.RecordDatagen(time.Since(t0gen), int64(g.NumEdges()))
	eng := graphengine.New(p.Workers).Instrument(c)
	t0 := time.Now()
	res, err := eng.Run(g, graphengine.PageRank{}, 20)
	if err != nil {
		return err
	}
	c.ObserveLatency("run", time.Since(t0))
	c.Add("records", g.N)
	c.Add("messages", res.MessagesSent)
	c.Add("supersteps", int64(res.Supersteps))
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
