package datagen

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/bdbench/bdbench/internal/stats"
)

func TestParallelDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []uint64 {
		out := make([]uint64, 16)
		var mu sync.Mutex
		err := Parallel(99, 16, workers, func(chunk int, g *stats.RNG) error {
			v := g.Uint64()
			mu.Lock()
			out[chunk] = v
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := run(1)
	parallel := run(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("chunk %d differs between worker counts: %d vs %d", i, serial[i], parallel[i])
		}
	}
}

func TestParallelPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	err := Parallel(1, 4, 2, func(chunk int, g *stats.RNG) error {
		if chunk == 2 {
			return sentinel
		}
		return nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want wrapped sentinel", err)
	}
}

// TestParallelStopsAfterFirstError: once a chunk has failed, no further chunk
// is dispatched or started — a failure in chunk 0 of a 1 000-chunk plan runs
// at most the chunks already in flight, not the other 999.
func TestParallelStopsAfterFirstError(t *testing.T) {
	const workers = 4
	var ran atomic.Int64
	err := Parallel(1, 1000, workers, func(chunk int, g *stats.RNG) error {
		ran.Add(1)
		if chunk == 0 {
			return errors.New("boom")
		}
		time.Sleep(5 * time.Millisecond)
		return nil
	})
	if err == nil {
		t.Fatal("want chunk 0's error")
	}
	if n := ran.Load(); n > 2*workers {
		t.Fatalf("chunk 0 failed and %d chunks ran, want at most %d", n, 2*workers)
	}
}

func TestParallelZeroChunks(t *testing.T) {
	called := false
	if err := Parallel(1, 0, 4, func(int, *stats.RNG) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called with zero chunks")
	}
}

func TestParallelClampsWorkers(t *testing.T) {
	var mu sync.Mutex
	count := 0
	if err := Parallel(1, 3, 100, func(int, *stats.RNG) error {
		mu.Lock()
		count++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("chunks executed %d, want 3", count)
	}
	// workers <= 0 defaults to 1 and still runs everything.
	count = 0
	if err := Parallel(1, 3, 0, func(int, *stats.RNG) error {
		mu.Lock()
		count++
		mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("chunks executed %d with zero workers, want 3", count)
	}
}

func TestRateProbe(t *testing.T) {
	p := NewRateProbe()
	p.Add(10)
	p.Add(5)
	if p.count != 15 {
		t.Fatalf("count %d, want 15", p.count)
	}
	time.Sleep(5 * time.Millisecond)
	if p.Rate() <= 0 {
		t.Fatal("rate should be positive after elapsed time")
	}
}
