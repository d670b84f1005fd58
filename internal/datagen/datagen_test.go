package datagen

import (
	"errors"
	"sync"
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

// virtualClock advances only when slept on.
type virtualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *virtualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *virtualClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestTokenBucketPacesToRate(t *testing.T) {
	clock := &virtualClock{now: time.Unix(0, 0)}
	tb := NewTokenBucket(100, 1) // 100 tokens/sec, burst 1
	tb.SetClock(clock.Now, clock.Sleep)
	start := clock.Now()
	for i := 0; i < 200; i++ {
		tb.Take(1)
	}
	elapsed := clock.Now().Sub(start)
	// 200 tokens at 100/sec with burst 1 should take ~2 virtual seconds.
	if elapsed < 1900*time.Millisecond || elapsed > 2100*time.Millisecond {
		t.Fatalf("virtual elapsed %v, want ~2s", elapsed)
	}
}

func TestTokenBucketBurst(t *testing.T) {
	clock := &virtualClock{now: time.Unix(0, 0)}
	tb := NewTokenBucket(10, 50)
	tb.SetClock(clock.Now, clock.Sleep)
	start := clock.Now()
	for i := 0; i < 50; i++ {
		tb.Take(1) // entire burst available immediately
	}
	if clock.Now().Sub(start) != 0 {
		t.Fatal("burst tokens should not wait")
	}
	tb.Take(1)
	if clock.Now().Sub(start) == 0 {
		t.Fatal("post-burst token should wait")
	}
}

func TestTokenBucketUnlimited(t *testing.T) {
	tb := NewTokenBucket(0, 1)
	if w := tb.Take(1000); w != 0 {
		t.Fatalf("unlimited bucket waited %v", w)
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
