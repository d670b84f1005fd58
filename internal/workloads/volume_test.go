package workloads_test

import (
	"context"
	"testing"

	"github.com/bdbench/bdbench/internal/metrics"
	"github.com/bdbench/bdbench/internal/raceflag"
	"github.com/bdbench/bdbench/internal/workloads"
	"github.com/bdbench/bdbench/internal/workloads/commerce"
	"github.com/bdbench/bdbench/internal/workloads/micro"
	"github.com/bdbench/bdbench/internal/workloads/relational"
	"github.com/bdbench/bdbench/internal/workloads/search"
)

// TestAllocationsFollowChunks holds five built-ins to cost that follows
// volume in chunks, not in records: run at the scale batch_mix gives each,
// s, and at 2s, a workload may allocate at most perChunk more for every
// chunkRecords records its volume adds (its documents, log lines, users or
// text lines), never one or more per record. Each once allocated per word,
// per row or per user; the allocations left grow with generation chunks,
// the engine's run segments and the keys a job counts.
func TestAllocationsFollowChunks(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const chunkRecords, perChunk = 256, 32
	for _, tc := range []struct {
		w        workloads.Workload
		s        int
		perScale int // records per unit of scale
	}{
		{commerce.NaiveBayes, 2, 1000},            // documents
		{search.InvertedIndex, 2, 1000},           // documents
		{relational.URLCount, 3, 5000},            // log lines
		{commerce.CollaborativeFiltering, 5, 500}, // users
		{micro.WordCount, 6, 1000},                // text lines
	} {
		t.Run(tc.w.Name(), func(t *testing.T) {
			allocs := func(scale int) float64 {
				p := workloads.Params{Seed: 2014, Scale: scale, Workers: 2, DatagenWorkers: 2}
				return testing.AllocsPerRun(3, func() {
					if err := tc.w.Run(context.Background(), p, metrics.NewCollector(tc.w.Name())); err != nil {
						t.Fatal(err)
					}
				})
			}
			added := tc.s * tc.perScale
			small, large := allocs(tc.s), allocs(2*tc.s)
			if bound := float64(perChunk * added / chunkRecords); large-small > bound {
				t.Errorf("allocations grow from %.0f at Scale %d to %.0f at Scale %d: %.0f for %d more records, want at most %.0f (%d per %d)",
					small, tc.s, large, 2*tc.s, large-small, added, bound, perChunk, chunkRecords)
			}
		})
	}
}
