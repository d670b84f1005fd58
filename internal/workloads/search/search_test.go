package search

import (
	"context"
	"strings"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stacks/graphengine"
	"github.com/bdbench/bdbench/internal/workloads"
)

func TestInvertedIndex(t *testing.T) {
	c := metrics.NewCollector("ii")
	if err := (InvertedIndex{}).Run(context.Background(), workloads.Params{Seed: 1, Scale: 1, Workers: 4}, c); err != nil {
		t.Fatal(err)
	}
	if c.Snapshot().Counters["terms"] == 0 {
		t.Fatal("no terms indexed")
	}
}

func TestPageRank(t *testing.T) {
	c := metrics.NewCollector("pr")
	if err := (PageRank{}).Run(context.Background(), workloads.Params{Seed: 2, Scale: 1, Workers: 4}, c); err != nil {
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
	if (InvertedIndex{}).Domain() != "search engine" || (PageRank{}).Domain() != "search engine" {
		t.Fatal("domain wrong")
	}
	if (InvertedIndex{}).Category() != workloads.Realtime {
		t.Fatal("indexing should be the real-time analytics row (Nutch indexing in HiBench)")
	}
	if (PageRank{}).Category() != workloads.Offline {
		t.Fatal("pagerank should be offline analytics")
	}
}
