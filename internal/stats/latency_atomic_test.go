package stats

import (
	"sync"
	"testing"
	"time"
)

// TestAtomicLatencyMatchesSequential is the shard pipeline's core
// correctness claim: N concurrent writers into one atomic histogram produce
// exactly the counts/sum/max a sequential baseline produces.
func TestAtomicLatencyMatchesSequential(t *testing.T) {
	const writers, perWriter = 8, 2000
	var concurrent, sequential AtomicLatencyHistogram
	durations := make([][]time.Duration, writers)
	for w := range durations {
		g := NewRNG(uint64(100 + w))
		durations[w] = make([]time.Duration, perWriter)
		for i := range durations[w] {
			durations[w][i] = time.Duration(g.IntN(1<<22)) * time.Microsecond
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, d := range durations[w] {
				concurrent.Observe(d)
			}
		}(w)
	}
	wg.Wait()
	for _, ds := range durations {
		for _, d := range ds {
			sequential.Observe(d)
		}
	}
	snap, baseline := concurrent.Snapshot(), sequential.Snapshot()
	if snap.Count() != baseline.Count() {
		t.Fatalf("count %d, want %d", snap.Count(), baseline.Count())
	}
	if snap.Mean() != baseline.Mean() {
		t.Fatalf("mean %v, want %v", snap.Mean(), baseline.Mean())
	}
	if snap.Max() != baseline.Max() {
		t.Fatalf("max %v, want %v", snap.Max(), baseline.Max())
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got, want := snap.Quantile(q), baseline.Quantile(q); got != want {
			t.Fatalf("q%.2f %v, want %v", q, got, want)
		}
	}
}

// TestLatencyMergeInvariants: merging shards preserves count, sum, max and
// quantiles exactly versus observing everything into one histogram.
func TestLatencyMergeInvariants(t *testing.T) {
	g := NewRNG(7)
	var all AtomicLatencyHistogram
	parts := make([]*AtomicLatencyHistogram, 4)
	for i := range parts {
		parts[i] = &AtomicLatencyHistogram{}
	}
	for i := 0; i < 5000; i++ {
		d := time.Duration(g.IntN(1<<24)) * time.Microsecond
		all.Observe(d)
		parts[i%len(parts)].Observe(d)
	}
	whole := all.Snapshot()
	var merged LatencyHistogram
	for _, p := range parts {
		merged.Merge(p.Snapshot())
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d, want %d", merged.Count(), whole.Count())
	}
	if merged.Mean() != whole.Mean() {
		t.Fatalf("merged mean %v, want %v", merged.Mean(), whole.Mean())
	}
	if merged.Max() != whole.Max() {
		t.Fatalf("merged max %v, want %v", merged.Max(), whole.Max())
	}
	for q := 0.0; q <= 1.0; q += 0.05 {
		if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
			t.Fatalf("merged q%.2f = %v, want %v", q, got, want)
		}
	}
}

// TestAtomicLatencySnapshotDuringWrites exercises Snapshot racing with
// in-flight observes (meaningful under -race) and checks the cut is
// internally consistent: quantiles bounded by max, count monotone.
func TestAtomicLatencySnapshotDuringWrites(t *testing.T) {
	var h AtomicLatencyHistogram
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := NewRNG(uint64(w))
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(time.Duration(g.IntN(1 << 20)))
				}
			}
		}(w)
	}
	var last uint64
	for i := 0; i < 200; i++ {
		snap := h.Snapshot()
		if snap.Count() < last {
			t.Fatalf("count went backwards: %d -> %d", last, snap.Count())
		}
		last = snap.Count()
		if snap.Count() > 0 && snap.Quantile(0.99) > snap.Max()+time.Millisecond {
			t.Fatalf("q99 %v exceeds max %v", snap.Quantile(0.99), snap.Max())
		}
	}
	close(stop)
	wg.Wait()
}

func TestAtomicLatencyNegativeClamped(t *testing.T) {
	var h AtomicLatencyHistogram
	h.Observe(-time.Second)
	snap := h.Snapshot()
	if snap.Count() != 1 || snap.Quantile(1) != 0 {
		t.Fatal("negative duration should clamp to zero")
	}
}
