package graphengine

import (
	"maps"
	"testing"

	"github.com/bdbench/bdbench/internal/datagen/graphgen"
	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/stats"
)

// TestInstrumentRecordsSupersteps: an instrumented engine observes one
// "superstep" latency per executed superstep and workers*supersteps
// per-worker "compute" latencies — also with more workers than vertices —
// and nothing for the exchange between them.
func TestInstrumentRecordsSupersteps(t *testing.T) {
	for _, tc := range []struct {
		g       *graphgen.Graph
		workers int
	}{
		{graphgen.DefaultRMAT.Generate(stats.NewRNG(3), 8), 2},
		{chain(3), 8},
	} {
		c := metrics.NewCollector("bsp")
		res, err := New(tc.workers).Instrument(c).Run(tc.g, PageRank{}, 5)
		if err != nil {
			t.Fatal(err)
		}
		c.SetElapsed(1)
		counts := map[string]uint64{}
		for _, op := range c.Snapshot().Ops {
			counts[op.Op] = op.Count
		}
		want := map[string]uint64{"superstep": uint64(res.Supersteps), "compute": uint64(tc.workers * res.Supersteps)}
		if !maps.Equal(counts, want) {
			t.Fatalf("%d workers: observations %v, want %v", tc.workers, counts, want)
		}
	}
}

// TestUninstrumentedGraphEngine keeps the default path metric-free.
func TestUninstrumentedGraphEngine(t *testing.T) {
	g := graphgen.DefaultRMAT.Generate(stats.NewRNG(4), 8)
	if _, err := New(2).Run(g, PageRank{}, 3); err != nil {
		t.Fatal(err)
	}
}
