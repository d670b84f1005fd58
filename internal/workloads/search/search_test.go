package search

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/datagen/textgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks/graphengine"
	"github.com/bdbench/bdbench/internal/stacks/mapreduce"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestInvertedIndex(t *testing.T) {
	c := metrics.NewCollector("ii")
	if err := InvertedIndex.Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["terms"] == 0 {
		t.Fatal("no terms indexed")
	}
}

func TestPageRank(t *testing.T) {
	c := metrics.NewCollector("pr")
	if err := PageRank.Run(context.Background(), workloads.Params{Seed: 2, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["messages"] == 0 || c.Snapshot().Counters["supersteps"] == 0 {
		t.Fatal("graph counters missing")
	}
}

// TestPageRankHubCheck: the verification fails when the vertex with the most
// in-edges ranks at or below the median, and passes on the engine's answer.
func TestPageRankHubCheck(t *testing.T) {
	// A star: 1..4 point at 0, which points nowhere (top in-degree, lowest
	// out-degree).
	g := &graphgen.Graph{N: 5}
	for v := int64(1); v < 5; v++ {
		g.Edges = append(g.Edges, graphgen.Edge{Src: v, Dst: 0})
	}
	res, err := graphengine.New(2).Run(g, graphengine.PageRank{}, 20)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkRanks(g, res.Values); err != nil {
		t.Fatalf("engine ranks rejected: %v", err)
	}
	err = checkRanks(g, []float64{0.2, 1, 1, 1, 1})
	if err == nil || !strings.Contains(err.Error(), "top in-degree vertex") {
		t.Fatalf("hub below the median accepted: %v", err)
	}
}

func TestMetadata(t *testing.T) {
	if InvertedIndex.Domain() != "search engine" || PageRank.Domain() != "search engine" {
		t.Fatal("domain wrong")
	}
	if InvertedIndex.Category() != workloads.Realtime {
		t.Fatal("indexing should be the real-time analytics row (Nutch indexing in HiBench)")
	}
	if PageRank.Category() != workloads.Offline {
		t.Fatal("pagerank should be offline analytics")
	}
}

// TestPostingsPinned holds the index over batch_mix's corpus (seed 2014,
// Scale 2) to the digest it had when the mapper deduplicated each document's
// words through a map of its own: same words, same postings, same order.
func TestPostingsPinned(t *testing.T) {
	out, err := postings(mapreduce.New(2), textgen.ReferenceCorpusParallel(2014, 2000, 40, 2))
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, kv := range out {
		fmt.Fprintf(h, "%s\x00%s\n", kv.Key, kv.Value)
	}
	if got, want := h.Sum64(), uint64(0x819e844925abb42c); len(out) == 0 || got != want {
		t.Fatalf("postings moved: %d words, digest %#x, want %#x", len(out), got, want)
	}
}

// TestCheckPostingsComparesIDs: the probe check accepts the true list and
// rejects one naming the wrong documents in the right number, one short, and
// one with a document too many.
func TestCheckPostingsComparesIDs(t *testing.T) {
	docs := textgen.Corpus{{"a", "b"}, {"b"}, {"a"}, {"c", "a"}}
	if err := checkPostings(docs, "a", "0,2,3"); err != nil {
		t.Fatalf("true postings rejected: %v", err)
	}
	for _, list := range []string{"0,1,3", "1,2,3", "0,2", "0,2,3,4", "", "0,,2,3"} {
		if err := checkPostings(docs, "a", list); err == nil {
			t.Errorf("postings %q for \"a\" accepted, want 0,2,3", list)
		}
	}
}
